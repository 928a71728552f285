// Package client speaks the unsd daemon's framed bidirectional protocol
// over a single TCP connection: push identifier batches up, subscribe to
// the sampling service's continuous output stream σ′ down, and issue
// sample requests and keepalives in between — the paper's stream-in/
// stream-out service shape without per-sample HTTP round trips.
//
// A Client is safe for concurrent use. Writes are serialised internally; a
// dedicated reader goroutine dispatches stream data, sample responses and
// pongs, so a subscription keeps flowing while other calls are in flight.
// The connection machinery — dial, TLS, backoff, generation-tagged RPC — is
// internal/netgossip's Session, the one framed-session implementation the
// daemon's cluster member connections run on too.
//
// Clients dialled with DialOptions.Reconnect survive daemon restarts: when
// the connection drops, the client redials with exponential backoff and
// jitter, re-issues its Subscribe (same capacity and decimation interval)
// on the fresh connection, and keeps the subscription channel open
// throughout — the consumer only observes a gap in the stream. Paired with
// the daemon's -snapshot-path restore, a restart costs neither the
// subscriber nor the sampler's accumulated frequency state.
//
// Typical session:
//
//	c, err := client.DialWithOptions("127.0.0.1:7947", client.DialOptions{Reconnect: true})
//	defer c.Close()
//	out, _ := c.Subscribe(1024)
//	go func() {
//	    for id := range out { use(id) }
//	}()
//	c.PushBatch(ids) // as the overlay gossips them in
package client

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/subhub"
)

// ErrClosed is returned by calls on a client whose connection has been
// closed (by Close, a server Error frame, or a connection failure — Err
// tells them apart).
var ErrClosed = errors.New("client: connection closed")

// MaxSubscribeCapacity bounds Subscribe's buffer argument: it caps the
// client-side channel allocation (the daemon additionally clamps its own
// buffer to a smaller operational limit).
const MaxSubscribeCapacity = 1 << 20

// MaxSubscribeEvery bounds the decimation interval to the daemon's own
// limit.
const MaxSubscribeEvery = subhub.MaxDecimation

// rpcTimeout bounds how long Sample and Ping wait for their response frame.
const rpcTimeout = 30 * time.Second

// handshakeTimeout bounds both the TCP connect and the TLS handshake of a
// fresh connection, so a black-holed endpoint (SYNs silently dropped) or a
// byte-trickling one cannot pin a dial — or the reconnect supervisor, or a
// Close waiting behind it — for the OS's multi-minute connect timeout.
const handshakeTimeout = 30 * time.Second

// DialOptions configures DialWithOptions. The zero value behaves exactly
// like Dial: one connection, no reconnection.
type DialOptions struct {
	// Reconnect enables automatic redialling after the connection fails:
	// exponential backoff from MinBackoff to MaxBackoff with random jitter
	// (so a daemon restart is not greeted by a synchronised thundering
	// herd), and automatic re-subscription of an active stream.
	Reconnect bool
	// MinBackoff is the first retry delay (default 50ms).
	MinBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// MaxAttempts limits consecutive failed dial attempts before the client
	// gives up and closes permanently. 0 means retry forever (until Close).
	MaxAttempts int
	// TLS, when non-nil, wraps every connection (the initial dial and each
	// reconnect) in a TLS client handshake before any frame is exchanged —
	// the transport the unsd daemon serves under -tls-cert/-tls-key. Supply
	// RootCAs to authenticate the daemon and Certificates when the daemon
	// demands mutual TLS (-tls-client-ca). When ServerName is empty the
	// host part of the dialled address is filled in, like tls.Dial does.
	// The config composes with Reconnect: a restarted daemon is redialled
	// and re-handshaken with the same credentials, and the subscription is
	// re-issued on the freshly authenticated connection.
	TLS *tls.Config
}

func (o DialOptions) withDefaults() DialOptions {
	if o.MinBackoff <= 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = o.MinBackoff
	}
	return o
}

// Client is one framed connection to an unsd daemon (transparently
// re-established under DialOptions.Reconnect). The connection itself — dial,
// TLS, backoff supervision, generation-tagged RPC — is a netgossip.Session;
// the client adds the stream dispatch and the subscription it re-issues on
// every fresh connection.
type Client struct {
	s *netgossip.Session
	// reconnect is fixed at construction: whether the session has
	// addresses to redial (DialOptions.Reconnect on a dialled client).
	reconnect bool

	mu       sync.Mutex
	stream   chan nodesampling.NodeID // nil until Subscribe
	subCap   int                      // saved Subscribe arguments for re-subscription
	subEvery int
	subRate  uint32 // saved delivery rate cap (ids/second; 0 uncapped)
	// resumeToken is the daemon's SubAck token for the live subscription;
	// a re-subscription presents it so the server resumes the decimation
	// phase where the old session left off instead of restarting the
	// 1-in-every window.
	resumeToken uint64
	err         error // terminal error, behind done

	done          chan struct{} // closed by finalize once the session has ended
	pingSeq       atomic.Uint64
	streamDropped atomic.Uint64
}

// Dial connects to an unsd stream listener.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, DialOptions{})
}

// DialWithOptions connects to an unsd stream listener with explicit
// resilience and transport options. The initial dial — TLS handshake
// included when DialOptions.TLS is set — is synchronous, so a bad address,
// an unauthentic server certificate or a rejected client certificate fails
// immediately; only established connections are re-dialled.
func DialWithOptions(addr string, opts DialOptions) (*Client, error) {
	return DialCluster([]string{addr}, opts)
}

// DialCluster connects to one member of an unsd cluster, trying the given
// stream addresses in order until one answers. Under DialOptions.Reconnect
// a lost connection rotates through the member list on every failed redial
// attempt, so the client rides whichever members are up — any member can
// ingest (batches are routed to their owners internally) and any member
// answers Sample over the whole cluster, so members are interchangeable
// endpoints.
func DialCluster(addrs []string, opts DialOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no cluster addresses")
	}
	opts = opts.withDefaults()
	var err error
	for i, a := range addrs {
		var conn net.Conn
		if conn, err = netgossip.DialConn(a, opts.TLS, handshakeTimeout); err != nil {
			continue
		}
		var redial []string
		if opts.Reconnect {
			// Redials start at the member that answered and rotate on.
			redial = append(append(redial, addrs[i:]...), addrs[:i]...)
		}
		return start(conn, redial, opts), nil
	}
	return nil, fmt.Errorf("client: dial %s: %w", strings.Join(addrs, ","), err)
}

// New wraps an established connection (any net.Conn speaking the framed
// protocol). The client owns the connection from this point. A client
// built from a raw connection has no address to redial, so it never
// reconnects.
func New(conn net.Conn) *Client {
	return start(conn, nil, DialOptions{})
}

func start(conn net.Conn, redial []string, opts DialOptions) *Client {
	c := &Client{reconnect: len(redial) > 0, done: make(chan struct{})}
	c.s = netgossip.NewSession(netgossip.SessionConfig{
		Addrs:       redial,
		TLS:         opts.TLS,
		DialTimeout: handshakeTimeout,
		MinBackoff:  opts.MinBackoff,
		MaxBackoff:  opts.MaxBackoff,
		MaxAttempts: opts.MaxAttempts,
		OnConnect:   c.resubscribe,
		OnFrame:     c.onFrame,
	})
	c.s.Start(conn)
	go c.finalize()
	return c
}

// resubscribe re-issues an active subscription on a fresh connection. It
// carries the previous connection's resume token, so the daemon continues
// the decimation phase mid-window instead of restarting it.
func (c *Client) resubscribe() error {
	c.mu.Lock()
	subscribed := c.stream != nil
	f := netgossip.Frame{Type: netgossip.FrameSubscribe, N: uint32(c.subCap), Every: uint32(c.subEvery), Rate: c.subRate, Token: c.resumeToken}
	c.mu.Unlock()
	if !subscribed {
		return nil
	}
	return c.s.Write(f)
}

// onFrame handles the frames that are not RPC responses: σ′ stream data
// and the daemon's subscription acknowledgement, whose token redeems this
// subscription's decimation phase on a reconnect.
func (c *Client) onFrame(f netgossip.Frame) error {
	switch f.Type {
	case netgossip.FrameStreamData:
		c.dispatchStream(f.IDs)
	case netgossip.FrameSubAck:
		c.mu.Lock()
		c.resumeToken = f.Token
		c.mu.Unlock()
	default:
		return fmt.Errorf("unexpected frame type %d from server", f.Type)
	}
	return nil
}

// finalize waits for the session to end for good, records the terminal
// error and closes the subscription channel. It is the only closer of that
// channel and runs after the session's read loop has stopped, so stream
// sends never race the close.
func (c *Client) finalize() {
	<-c.s.Done()
	err := c.s.Err()
	if errors.Is(err, netgossip.ErrClosed) {
		err = ErrClosed
	} else {
		err = fmt.Errorf("client: %w", err)
	}
	c.mu.Lock()
	c.err = err
	stream := c.stream
	c.stream = nil
	c.mu.Unlock()
	close(c.done)
	if stream != nil {
		close(stream)
	}
}

// dispatchStream hands σ′ ids to the subscription channel without ever
// blocking the reader: a full buffer drops the new arrivals (counted), so
// a stalled consumer cannot wedge sample responses behind stream data.
func (c *Client) dispatchStream(ids []uint64) {
	c.mu.Lock()
	stream := c.stream
	c.mu.Unlock()
	if stream == nil {
		c.streamDropped.Add(uint64(len(ids)))
		return
	}
	for i, id := range ids {
		select {
		case stream <- nodesampling.NodeID(id):
		default:
			c.streamDropped.Add(uint64(len(ids) - i))
			return
		}
	}
}

// write sends one frame on the current connection. During a reconnection
// window it fails with a transient error.
func (c *Client) write(f netgossip.Frame) error {
	if err := c.s.Write(f); err != nil {
		return c.fail("write", err)
	}
	return nil
}

// fail names a failed operation — or, once the client has ended for good,
// reports the terminal error instead.
func (c *Client) fail(op string, err error) error {
	if cerr := c.Err(); cerr != nil {
		return cerr
	}
	return fmt.Errorf("client: %s: %w", op, err)
}

// PushBatch feeds identifiers into the daemon's input stream. Batches
// larger than the wire limit are split transparently. The slice may be
// reused after the call returns.
func (c *Client) PushBatch(ids []nodesampling.NodeID) error {
	for len(ids) > 0 {
		n := len(ids)
		if n > netgossip.MaxBatch {
			n = netgossip.MaxBatch
		}
		raw := make([]uint64, n)
		for i, id := range ids[:n] {
			raw[i] = uint64(id)
		}
		if err := c.write(netgossip.Frame{Type: netgossip.FramePushBatch, IDs: raw}); err != nil {
			return err
		}
		ids = ids[n:]
	}
	return nil
}

// Sample requests n uniform samples (1 ≤ n; the daemon caps how many it
// answers with). An empty slice with a nil error means the pool holds no
// ids yet.
func (c *Client) Sample(n int) ([]nodesampling.NodeID, error) {
	// A SampleResp frame carries at most MaxBatch ids, so larger requests
	// could never be answered in full anyway.
	if n < 1 || n > netgossip.MaxBatch {
		return nil, fmt.Errorf("client: sample count must be in [1, %d], got %d", netgossip.MaxBatch, n)
	}
	resp, err := c.s.Call(netgossip.Frame{Type: netgossip.FrameSample, N: uint32(n)}, netgossip.FrameSampleResp, rpcTimeout)
	if err != nil {
		return nil, c.fail("sample", err)
	}
	out := make([]nodesampling.NodeID, len(resp.IDs))
	for i, id := range resp.IDs {
		out[i] = nodesampling.NodeID(id)
	}
	return out, nil
}

// Ping round-trips a keepalive token and verifies the echo.
func (c *Client) Ping() error {
	token := c.pingSeq.Add(1)
	resp, err := c.s.Call(netgossip.Frame{Type: netgossip.FramePing, Token: token}, netgossip.FramePong, rpcTimeout)
	if err != nil {
		return c.fail("ping", err)
	}
	if resp.Token != token {
		return fmt.Errorf("client: pong token %d, want %d", resp.Token, token)
	}
	return nil
}

// Subscribe asks the daemon to stream σ′ to this connection and returns
// the channel carrying it, buffered to the given capacity. Only one
// subscription per connection; the channel closes when the client closes
// for good (under DialOptions.Reconnect it stays open across daemon
// restarts, and the subscription is re-issued automatically on the fresh
// connection). A consumer that stops reading loses the newest arrivals
// (StreamDropped counts them) — the daemon additionally sheds oldest
// buffered draws on its side, so a stalled subscriber never builds an
// unbounded backlog anywhere. The daemon cuts connections with no inbound
// traffic for an extended period (its slowloris defence); a subscriber
// that pushes nothing should call Ping every few minutes to keep the
// stream alive.
func (c *Client) Subscribe(capacity int) (<-chan nodesampling.NodeID, error) {
	return c.SubscribeEvery(capacity, 1)
}

// SubscribeEvery is Subscribe with per-subscription decimation: the daemon
// delivers only every every-th σ′ draw, so a modest consumer rides the
// stream at a rate it can afford (a 1-in-k thinning of an i.i.d. uniform
// stream is itself i.i.d. uniform).
//
// SubscribeEvery keeps the pre-extension wire form, so it works against
// daemons of any vintage — which also means the daemon never acks it and
// a reconnect (DialOptions.Reconnect) restarts the decimation window.
// That can only stretch delivery spacing, never compress it. A
// subscription that also carries a rate cap (SubscribeRate) uses the
// extended form and continues its window across reconnects via the
// daemon's resume token.
func (c *Client) SubscribeEvery(capacity, every int) (<-chan nodesampling.NodeID, error) {
	return c.SubscribeRate(capacity, every, 0)
}

// SubscribeRate is SubscribeEvery with a delivery rate cap: the daemon
// discards (and accounts) deliveries beyond rate ids/second for this
// subscription, enforced server-side with a token bucket allowing one
// second of burst. rate 0 leaves the subscription uncapped. Decimation
// composes with the cap: the 1-in-every thinning runs first, the bucket
// meters what survives it.
//
// A rate-capped subscription uses the extended Subscribe wire form, which
// the daemon acknowledges with a resume token; under
// DialOptions.Reconnect the re-issued subscription presents it, and the
// server seeds the fresh subscription's offer counter with the old one's
// — so across the whole stitched stream, two deliveries stay (at least)
// every offered draws apart. (Old daemons reject the extended form
// outright; rate caps require an upgraded daemon.)
func (c *Client) SubscribeRate(capacity, every int, rate uint32) (<-chan nodesampling.NodeID, error) {
	if capacity < 1 || capacity > MaxSubscribeCapacity {
		return nil, fmt.Errorf("client: subscription capacity must be in [1, %d], got %d", MaxSubscribeCapacity, capacity)
	}
	if every < 1 || every > MaxSubscribeEvery {
		return nil, fmt.Errorf("client: decimation interval must be in [1, %d], got %d", MaxSubscribeEvery, every)
	}
	c.mu.Lock()
	if c.stream != nil {
		c.mu.Unlock()
		return nil, errors.New("client: already subscribed")
	}
	// c.err is assigned inside finalize's c.mu section, before it
	// snapshots c.stream for closing — so checking it here (rather than
	// c.done, which closes later) guarantees either this registration is
	// observed by the teardown or the teardown is observed here.
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	ch := make(chan nodesampling.NodeID, capacity)
	c.stream = ch
	c.subCap, c.subEvery, c.subRate = capacity, every, rate
	c.mu.Unlock()
	if err := c.write(netgossip.Frame{Type: netgossip.FrameSubscribe, N: uint32(capacity), Every: uint32(every), Rate: rate}); err != nil {
		if c.reconnect {
			select {
			case <-c.s.Done():
			default:
				// The registration stands: the session re-issues it on the
				// next connection, so the subscription survives a restart
				// that lands exactly here.
				return ch, nil
			}
		}
		// finalize is the only closer of the stream channel (closing it
		// here would race a concurrent dispatchStream send); a connection
		// whose Subscribe could not be written is dead weight anyway, so
		// tear it down and let finalize close ch on its way out.
		_ = c.Close()
		return nil, err
	}
	return ch, nil
}

// StreamDropped reports how many σ′ ids the client discarded because the
// subscription buffer was full when they arrived.
func (c *Client) StreamDropped() uint64 { return c.streamDropped.Load() }

// Reconnects reports how many times the client re-established its
// connection (always 0 without DialOptions.Reconnect).
func (c *Client) Reconnects() uint64 { return c.s.Reconnects() }

// Err returns the error that terminated the connection, or nil while it is
// live (including while a reconnecting client is between connections).
func (c *Client) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down and waits for the session to end and
// any subscription channel to close. Idempotent.
func (c *Client) Close() error {
	c.s.Close()
	<-c.done
	return nil
}
