package netgossip

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// Config parameterises a peer.
type Config struct {
	// Self is this node's identifier, gossiped to neighbours every round.
	Self uint64
	// C, K, S size the knowledge-free sampler (memory and sketch shape).
	C, K, S int
	// Fanout is how many neighbours receive a batch per PushRound.
	Fanout int
	// ForwardBuffer is the number of recently heard ids re-gossiped along
	// with the own id (rumor mongering); 0 disables forwarding.
	ForwardBuffer int
	// ForwardPerPush caps how many forwarded ids join each batch.
	ForwardPerPush int
	// Seed drives the peer's private randomness.
	Seed uint64
}

func (c Config) validate() error {
	if c.C < 1 || c.K < 1 || c.S < 1 {
		return fmt.Errorf("netgossip: invalid sampler sizing c=%d k=%d s=%d", c.C, c.K, c.S)
	}
	if c.Fanout < 1 {
		return fmt.Errorf("netgossip: fanout must be at least 1, got %d", c.Fanout)
	}
	if c.ForwardBuffer < 0 || c.ForwardPerPush < 0 {
		return fmt.Errorf("netgossip: negative forwarding parameters")
	}
	if 1+c.ForwardPerPush > MaxBatch {
		return fmt.Errorf("netgossip: batch of %d ids exceeds protocol limit", 1+c.ForwardPerPush)
	}
	return nil
}

// Peer is one node of the gossip overlay: it owns a set of connections, a
// knowledge-free sampler fed by everything received, and a forward buffer
// for rumor mongering. All methods are safe for concurrent use. It also
// keeps an exact histogram of received ids (InputStats), which grows one
// entry per distinct id: Peer serves simulations and examples, and a
// public listener belongs to the daemon's stream handler instead.
type Peer struct {
	cfg Config

	mu      sync.Mutex
	sampler *core.KnowledgeFree
	r       *rng.Xoshiro
	forward []uint64
	fwdPos  int
	conns   []net.Conn
	input   *metrics.Histogram
	closed  bool

	readers sync.WaitGroup
}

// NewPeer creates a peer with no connections yet.
func NewPeer(cfg Config) (*Peer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	sampler, err := core.NewKnowledgeFree(cfg.C, cfg.K, cfg.S, r.Split())
	if err != nil {
		return nil, err
	}
	p := &Peer{
		cfg:     cfg,
		r:       r,
		sampler: sampler,
		input:   metrics.NewHistogram(),
	}
	if cfg.ForwardBuffer > 0 {
		p.forward = make([]uint64, 0, cfg.ForwardBuffer)
	}
	return p, nil
}

// AddConn hands a connection to the peer, which starts reading batches from
// it immediately. The peer owns the connection from this point and closes
// it on shutdown or on protocol error.
func (p *Peer) AddConn(conn net.Conn) error {
	if conn == nil {
		return errors.New("netgossip: nil connection")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = conn.Close()
		return errors.New("netgossip: peer closed")
	}
	p.conns = append(p.conns, conn)
	p.readers.Add(1)
	p.mu.Unlock()
	go p.readLoop(conn)
	return nil
}

// readLoop consumes frames from one connection until error or shutdown.
// Gossip connections carry FramePushBatch upstream; keepalives are
// tolerated (and pings answered), anything else is a protocol breach that
// drops the connection. A client still speaking the retired v1 batch
// protocol trips the legacy magic on its first byte and is refused loudly:
// a FrameError naming the replacement goes back best-effort before the
// drop, so the operator of the stale client sees why instead of a silent
// reset.
func (p *Peer) readLoop(conn net.Conn) {
	defer p.readers.Done()
	// One buffer-reusing decoder per connection: a sustained batch flood
	// costs no per-frame allocations. Every consumer below (the histogram,
	// the sampler, the forward ring) copies what it keeps before the next
	// Read overwrites the buffer.
	fr := NewFrameReader(conn)
	for {
		f, err := fr.Read()
		if err != nil {
			if errors.Is(err, errLegacyMagic) {
				_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				_ = WriteFrame(conn, Frame{Type: FrameError, Msg: err.Error()})
			}
			p.dropConn(conn)
			return
		}
		switch f.Type {
		case FramePushBatch:
			p.ingest(f.IDs)
		case FramePing, FramePong:
			// Keepalives are tolerated but not answered here: answering
			// would interleave writes with a concurrent PushRound on the
			// same connection, and gossip liveness already rides on the
			// push-round write path.
		default:
			p.dropConn(conn)
			return
		}
	}
}

// ingest feeds received ids into the sampler, the stream statistics and
// the forward buffer.
func (p *Peer) ingest(ids []uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for _, id := range ids {
		p.input.Add(id)
		p.sampler.Process(id)
		if cap(p.forward) > 0 {
			if len(p.forward) < cap(p.forward) {
				p.forward = append(p.forward, id)
			} else {
				p.forward[p.fwdPos] = id
				p.fwdPos = (p.fwdPos + 1) % cap(p.forward)
			}
		}
	}
}

// dropConn removes and closes a connection (reader exit path).
func (p *Peer) dropConn(conn net.Conn) {
	p.mu.Lock()
	for i, c := range p.conns {
		if c == conn {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	_ = conn.Close()
}

// PushRound performs one push-gossip round: Fanout randomly chosen
// neighbours each receive a batch of the own id plus up to ForwardPerPush
// forwarded ids. Writes happen outside the peer lock; a neighbour that
// fails to accept the batch is dropped. It reports how many batches were
// delivered.
func (p *Peer) PushRound() (delivered int, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, errors.New("netgossip: peer closed")
	}
	if len(p.conns) == 0 {
		p.mu.Unlock()
		return 0, nil
	}
	// Choose targets and compose the batch under the lock.
	targets := make([]net.Conn, 0, p.cfg.Fanout)
	for i := 0; i < p.cfg.Fanout; i++ {
		targets = append(targets, p.conns[p.r.Intn(len(p.conns))])
	}
	batch := make([]uint64, 0, 1+p.cfg.ForwardPerPush)
	batch = append(batch, p.cfg.Self)
	for i := 0; i < p.cfg.ForwardPerPush && len(p.forward) > 0; i++ {
		batch = append(batch, p.forward[p.r.Intn(len(p.forward))])
	}
	p.mu.Unlock()

	for _, conn := range targets {
		if werr := WriteFrame(conn, Frame{Type: FramePushBatch, IDs: batch}); werr != nil {
			p.dropConn(conn)
			continue
		}
		delivered++
	}
	return delivered, nil
}

// Inject sends an arbitrary batch to every current neighbour — the
// adversarial primitive (a malicious peer flooding Sybil identifiers).
func (p *Peer) Inject(ids []uint64) error {
	p.mu.Lock()
	conns := append([]net.Conn(nil), p.conns...)
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return errors.New("netgossip: peer closed")
	}
	for _, conn := range conns {
		if err := WriteFrame(conn, Frame{Type: FramePushBatch, IDs: ids}); err != nil {
			p.dropConn(conn)
		}
	}
	return nil
}

// Sample returns the sampling service's current uniform sample.
func (p *Peer) Sample() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sampler.Sample()
}

// Memory returns a copy of the sampler's memory Γ.
func (p *Peer) Memory() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sampler.Memory()
}

// InputStats returns a snapshot of the received-id histogram.
func (p *Peer) InputStats() map[uint64]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.input.Counts()
}

// NumConns returns the current number of live connections.
func (p *Peer) NumConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close shuts the peer down: all connections are closed and all reader
// goroutines joined. Idempotent.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := append([]net.Conn(nil), p.conns...)
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	p.readers.Wait()
	return nil
}

// Listen accepts TCP connections on addr and adds each to the peer until
// the listener fails (e.g. because it was closed). It returns the listener
// so the caller can address and close it; the accept loop runs in a
// background goroutine that exits with the listener.
func (p *Peer) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netgossip: listen: %w", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if err := p.AddConn(conn); err != nil {
				_ = conn.Close()
				return
			}
		}
	}()
	return ln, nil
}

// Connect dials a TCP neighbour and adds the connection.
func (p *Peer) Connect(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("netgossip: dial %s: %w", addr, err)
	}
	return p.AddConn(conn)
}
