package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nodesampling/client"
	"nodesampling/internal/telemetry"
)

// daemon is one unsd process spawned by the benchmark, with the addresses
// of its HTTP and framed stream listeners.
type daemon struct {
	cmd    *exec.Cmd
	http   string
	stream string
	log    *tailBuffer
	done   chan struct{} // closed once the process has been reaped
}

// tailBuffer keeps the last max bytes a daemon wrote to stdout and stderr,
// for the error message when it dies.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// spawn starts bin with args and reaps it in the background.
func spawn(bin string, args []string, httpAddr, streamAddr string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	log := &tailBuffer{max: 16 << 10}
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start unsd: %w", err)
	}
	d := &daemon{cmd: cmd, http: httpAddr, stream: streamAddr, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, waits for a graceful exit and kills the process if it
// has not ended within ten seconds. It returns once the process is reaped.
func (d *daemon) stop() {
	if d.exited() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// freeAddrs reserves n distinct loopback ports by binding them at once and
// releases them for the daemons to bind. Another process can take a port in
// between; the fleet set-up retries when a member fails to start.
func freeAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// waitReady polls check every interval until it succeeds, abort reports a
// reason to give up, or the timeout passes.
func waitReady(timeout, interval time.Duration, check func() error, abort func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil {
			return nil
		}
		if aerr := abort(); aerr != nil {
			return aerr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v: %w", timeout, err)
		}
		sleep(interval)
	}
}

// probeHTTP answers nil when GET url returns 200.
func probeHTTP(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// probeStream answers nil when the framed listener at addr returns a Ping.
func probeStream(addr string) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Ping()
}

// fleet is the set of daemons of one workload: one standalone daemon or the
// members of a cluster, in the order the benchmark addresses them.
type fleet struct {
	members []*daemon
	hc      *http.Client
}

// startFleet spawns n unsd processes with the shared flags plus per-member
// listener addresses, and waits until every HTTP and stream listener
// answers and, for a cluster, every member reports every peer connected.
// It returns the fleet and the seconds from the first spawn until then.
func startFleet(bin string, n int, shared []string) (*fleet, float64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, secs, err := tryStartFleet(bin, n, shared)
		if err == nil {
			return f, secs, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStartFleet(bin string, n int, shared []string) (*fleet, float64, error) {
	addrs, err := freeAddrs(2 * n)
	if err != nil {
		return nil, 0, err
	}
	streams := addrs[n:]
	f := &fleet{hc: &http.Client{Timeout: 5 * time.Second}}
	began := time.Now()
	for i := 0; i < n; i++ {
		args := append([]string{"-http", addrs[i], "-stream", streams[i]}, shared...)
		if n > 1 {
			args = append(args, "-cluster", "-members", strings.Join(streams, ","))
		}
		d, err := spawn(bin, args, addrs[i], streams[i])
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.members = append(f.members, d)
	}
	abort := func() error {
		for _, d := range f.members {
			if d.exited() {
				return fmt.Errorf("unsd exited during set-up: %s", d.log.String())
			}
		}
		return nil
	}
	err = waitReady(30*time.Second, 250*time.Microsecond, f.ready, abort)
	secs := time.Since(began).Seconds()
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, secs, nil
}

// ready checks every listener of every member, and for a cluster that each
// member's connections to all its peers are up.
func (f *fleet) ready() error {
	for _, d := range f.members {
		if len(f.members) == 1 {
			if err := probeHTTP(f.hc, "http://"+d.http+"/stats"); err != nil {
				return err
			}
		} else {
			s, err := f.scrape(d)
			if err != nil {
				return err
			}
			fam := s.Family("unsd_cluster_member_connected")
			if fam == nil || len(fam.Samples) != len(f.members) {
				return errors.New("cluster membership not reported yet")
			}
			for _, smp := range fam.Samples {
				if smp.Value != 1 {
					return errors.New("cluster peer not connected yet")
				}
			}
		}
		if err := probeStream(d.stream); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, d := range f.members {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

func (f *fleet) scrape(d *daemon) (*telemetry.Scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return client.ScrapeMetrics(ctx, f.hc, "http://"+d.http+"/metrics", "")
}

func (f *fleet) scrapeAll() ([]*telemetry.Scrape, error) {
	out := make([]*telemetry.Scrape, len(f.members))
	for i, d := range f.members {
		s, err := f.scrape(d)
		if err != nil {
			return nil, fmt.Errorf("scrape member %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// fetchTrace returns the raw GET /trace document of d.
func (f *fleet) fetchTrace(d *daemon) ([]byte, error) {
	resp, err := f.hc.Get("http://" + d.http + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /trace: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// counts reads a member's ingest accounting from a scrape.
func counts(s *telemetry.Scrape) memberCounts {
	var m memberCounts
	v, _ := s.Value("unsd_pool_processed_ids_total")
	m.Processed = uint64(v)
	v, _ = s.Value("unsd_pool_dropped_ids_total")
	m.Dropped = uint64(v)
	return m
}

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat, fixed
// at 100 ticks per second on Linux.
const userHZ = 100

// cpuNanos returns the CPU time (user + system) the process has used.
func cpuNanos(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime + stime from a /proc/<pid>/stat line. The
// command name in parentheses may hold spaces, so fields are counted from
// the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(stat[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) * 1e9 / userHZ, nil
}

// hostSteal returns the host's CPU time stolen by the hypervisor and its
// total CPU time, in ticks, from the aggregate line of /proc/stat.
func hostSteal() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// peakRSSKiB returns the process's peak resident set size (VmHWM).
func peakRSSKiB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (f *fleet) cpuNanos() (float64, error) {
	var sum float64
	for _, d := range f.members {
		v, err := cpuNanos(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (f *fleet) peakRSSMiB() (float64, error) {
	var sum float64
	for _, d := range f.members {
		v, err := peakRSSKiB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / 1024, nil
}
