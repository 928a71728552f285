package netgossip

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/rng"
)

// Session errors. Connection-level failures (dial errors, a peer's Error
// frame, a reconnect that gave up) are returned unprefixed so the calling
// package can name itself in front of them.
var (
	// ErrNotConnected is returned by writes and calls while no connection
	// is installed: between a failure and the next successful dial.
	ErrNotConnected = errors.New("netgossip: session not connected")
	// ErrClosed is the terminal error of a session shut down by Close.
	ErrClosed = errors.New("netgossip: session closed")
	// ErrRPCTimeout is returned by Call when no response arrived in time.
	ErrRPCTimeout = errors.New("netgossip: rpc timed out")
)

// maxKeptWriteBuf bounds the encode buffer a session keeps between writes:
// a full id batch is reused, a migration blob is not retained.
const maxKeptWriteBuf = frameHeaderLen + 8 + MaxFramePayload

// SessionConfig parameterises a Session.
type SessionConfig struct {
	// Addrs are the endpoints the session redials, in rotation order: a
	// failed attempt moves on to the next address before backing off, so
	// one dead endpoint costs one attempt. Empty means the session never
	// redials and ends with its first connection.
	Addrs []string
	// TLS, when non-nil, wraps every dial in a client handshake; an empty
	// ServerName defaults to the dialled host.
	TLS *tls.Config
	// DialTimeout bounds each dial attempt, TLS handshake included.
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write; 0 sets no deadline.
	WriteTimeout time.Duration
	// MinBackoff and MaxBackoff bound the jittered exponential backoff
	// between failed dial attempts.
	MinBackoff, MaxBackoff time.Duration
	// MaxAttempts ends the session after that many consecutive failed dial
	// attempts; 0 retries until Close.
	MaxAttempts int
	// OnConnect runs on the supervisor goroutine for every connection the
	// session dials itself, after the connection is installed (Write
	// reaches it) and counted (Reconnects includes it), and before its
	// first frame is read. An error fails the attempt like a dial error.
	OnConnect func() error
	// OnFrame receives every inbound frame that is neither an RPC response
	// nor an Error. IDs and Blob alias the reader's buffers and are valid
	// only during the call. An error ends the connection.
	OnFrame func(Frame) error
	// OnDisconnect, when set, is told why each connection ended.
	OnDisconnect func(error)
}

// response is one RPC response frame, or a peer's Error, tagged with the
// generation of the connection that carried it.
type response struct {
	gen uint64
	f   Frame
	err error
}

// Session is one supervised framed connection: it dials (TLS included),
// redials with jittered exponential backoff across its addresses, runs the
// read loop, and offers serialised writes plus a single-outstanding RPC.
// Every installed connection gets a new generation; responses carry the
// generation that read them, so an answer buffered across a reconnect is
// never mistaken for the current request's. It is the one framed-client
// implementation behind the client package and the cluster member
// connections. All methods are safe for concurrent use.
type Session struct {
	cfg   SessionConfig
	after func(time.Duration) <-chan time.Time // time.After; tests drive RPC timeouts by hand

	wmu  sync.Mutex // serialises frame writes; guards wbuf
	wbuf []byte

	rpcMu sync.Mutex    // admits one Call at a time, so responses need no ids
	rpcc  chan response // single slot, see deliver

	mu      sync.Mutex
	conn    net.Conn // nil while disconnected
	gen     uint64   // connections installed so far: the current one's identity
	started bool
	closing bool
	err     error // terminal error, set before done closes

	closingCh    chan struct{}
	done         chan struct{}
	dialFailures atomic.Uint64

	// Owned by the supervisor goroutine.
	addrIdx  int
	attempts int
	backoff  time.Duration
	jitter   *rng.Xoshiro
}

// NewSession returns an idle session; Start sets it running.
func NewSession(cfg SessionConfig) *Session {
	return &Session{
		cfg:       cfg,
		after:     time.After,
		rpcc:      make(chan response, 1),
		closingCh: make(chan struct{}),
		done:      make(chan struct{}),
		backoff:   cfg.MinBackoff,
		jitter:    rng.New(uint64(time.Now().UnixNano())),
	}
}

// DialConn opens one transport connection to addr within timeout. With a
// TLS config the handshake completes before it returns, so an unauthentic
// or plaintext endpoint fails the dial instead of garbling frames.
func DialConn(addr string, cfg *tls.Config, timeout time.Duration) (net.Conn, error) {
	d := &net.Dialer{Timeout: timeout}
	if cfg == nil {
		return d.Dial("tcp", addr)
	}
	return tls.DialWithDialer(d, "tcp", addr, cfg)
}

// Start launches the supervisor. A non-nil conn is installed at once as
// the first connection (OnConnect does not run for it); with nil the
// supervisor dials first. Start after Close closes conn and does nothing.
func (s *Session) Start(conn net.Conn) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		return
	}
	s.started = true
	var gen uint64
	if conn != nil {
		s.conn = conn
		s.gen++
		gen = s.gen
	}
	s.mu.Unlock()
	go s.run(conn, gen)
}

// run owns the connection lifecycle until Close, a failure without
// addresses to redial, or an exhausted attempt budget. Backoff state
// survives across connections: one that dies before proving itself (no
// frame read, gone within MaxBackoff) counts as one more failed attempt,
// so a peer that accepts and then drops is retried at backoff pace.
func (s *Session) run(conn net.Conn, gen uint64) {
	var err error
	for {
		if conn == nil {
			if conn, gen, err = s.dial(); err != nil {
				break
			}
		}
		began := time.Now()
		var productive bool
		productive, err = s.serve(conn, gen)
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		_ = conn.Close()
		if s.cfg.OnDisconnect != nil {
			s.cfg.OnDisconnect(err)
		}
		if productive || time.Since(began) > s.cfg.MaxBackoff {
			s.attempts, s.backoff = 0, s.cfg.MinBackoff
		}
		if len(s.cfg.Addrs) == 0 || s.isClosing() {
			break
		}
		conn = nil
	}
	s.mu.Lock()
	if s.closing {
		err = ErrClosed
	}
	s.err = err
	s.mu.Unlock()
	close(s.done)
}

// dial establishes and installs the next connection, backing off between
// attempts and rotating through the addresses. Every failure mode (dial
// error, OnConnect error) spends one attempt against MaxAttempts.
func (s *Session) dial() (net.Conn, uint64, error) {
	if len(s.cfg.Addrs) == 0 {
		return nil, 0, errors.New("no address to dial")
	}
	for {
		if s.attempts > 0 {
			// Full jitter over [backoff/2, backoff] keeps a fleet from
			// redialling a restarted peer in lockstep.
			delay := s.backoff/2 + time.Duration(s.jitter.Uint64n(uint64(s.backoff/2)+1))
			select {
			case <-time.After(delay):
			case <-s.closingCh:
				return nil, 0, ErrClosed
			}
			s.backoff = min(2*s.backoff, s.cfg.MaxBackoff)
		}
		s.attempts++
		addr := s.cfg.Addrs[s.addrIdx]
		conn, err := DialConn(addr, s.cfg.TLS, s.cfg.DialTimeout)
		if err != nil {
			s.dialFailures.Add(1)
		} else {
			s.mu.Lock()
			if s.closing {
				s.mu.Unlock()
				_ = conn.Close()
				return nil, 0, ErrClosed
			}
			s.conn = conn
			s.gen++
			gen := s.gen
			s.mu.Unlock()
			if s.cfg.OnConnect != nil {
				err = s.cfg.OnConnect()
			}
			if err == nil {
				return conn, gen, nil
			}
			s.mu.Lock()
			s.conn = nil
			s.mu.Unlock()
			_ = conn.Close()
		}
		s.addrIdx = (s.addrIdx + 1) % len(s.cfg.Addrs)
		if s.cfg.MaxAttempts > 0 && s.attempts >= s.cfg.MaxAttempts {
			return nil, 0, fmt.Errorf("reconnect to %s gave up after %d attempts: %w", addr, s.attempts, err)
		}
	}
}

// serve is one connection's read loop. RPC responses go to the single
// rpc slot tagged with gen; an Error frame fails any pending call and ends
// the connection; everything else goes to OnFrame. productive reports
// whether at least one frame arrived.
func (s *Session) serve(conn net.Conn, gen uint64) (productive bool, err error) {
	fr := NewFrameReader(conn)
	for {
		f, err := fr.Read()
		if err != nil {
			return productive, err
		}
		productive = true
		switch f.Type {
		case FrameSampleResp, FrameSampleLocalResp, FramePong, FrameMigrateAck:
			f.IDs = append([]uint64(nil), f.IDs...) // the reader reuses its buffer
			s.deliver(response{gen: gen, f: f})
		case FrameError:
			err := fmt.Errorf("server error: %s", f.Msg)
			s.deliver(response{gen: gen, err: err})
			return productive, err
		default:
			if s.cfg.OnFrame == nil {
				return productive, fmt.Errorf("unexpected frame type %d", f.Type)
			}
			if err := s.cfg.OnFrame(f); err != nil {
				return productive, err
			}
		}
	}
}

// deliver hands a response to the single-slot rpc channel, evicting
// whatever is buffered when it is full — by construction an abandoned or
// stale-generation response, which must never be the reason the current
// one is dropped. Only the supervisor delivers, so the evict-and-retry
// races no other producer.
func (s *Session) deliver(r response) {
	select {
	case s.rpcc <- r:
		return
	default:
	}
	select {
	case <-s.rpcc:
	default:
	}
	select {
	case s.rpcc <- r:
	default:
	}
}

// Write sends one frame on the current connection.
func (s *Session) Write(f Frame) error {
	_, err := s.write(f)
	return err
}

// write sends f and returns the generation of the connection it went to.
// A failed write may have left a partial frame on the wire, so it drops
// that connection; the supervisor then redials.
func (s *Session) write(f Frame) (uint64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	conn, gen := s.conn, s.gen
	s.mu.Unlock()
	if conn == nil {
		return gen, ErrNotConnected
	}
	buf, err := AppendFrame(s.wbuf[:0], f)
	if err != nil {
		return gen, err
	}
	if cap(buf) <= maxKeptWriteBuf {
		s.wbuf = buf
	}
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	_, err = conn.Write(buf)
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		s.dropIf(gen)
	}
	return gen, err
}

// Call writes req and waits for the response of type want read from the
// same connection. On timeout the late answer would be taken for the next
// call's, so the connection the request went to is dropped — unless it has
// already been replaced, in which case the healthy successor owes this
// call nothing.
func (s *Session) Call(req Frame, want FrameType, timeout time.Duration) (Frame, error) {
	s.rpcMu.Lock()
	defer s.rpcMu.Unlock()
	select { // clear an abandoned predecessor's response
	case <-s.rpcc:
	default:
	}
	gen, err := s.write(req)
	if err != nil {
		return Frame{}, err
	}
	expired := s.after(timeout)
	for {
		select {
		case r := <-s.rpcc:
			if r.gen != gen {
				continue // buffered by a previous connection
			}
			if r.err != nil {
				return Frame{}, r.err
			}
			if r.f.Type != want {
				return Frame{}, fmt.Errorf("response frame type %d, want %d", r.f.Type, want)
			}
			return r.f, nil
		case <-expired:
			s.dropIf(gen)
			return Frame{}, ErrRPCTimeout
		case <-s.done:
			return Frame{}, s.Err()
		}
	}
}

// dropIf closes the current connection if it is still generation gen; the
// comparison and the capture happen under one lock, so a redial landing in
// between can never cost the successor its connection.
func (s *Session) dropIf(gen uint64) {
	s.mu.Lock()
	conn := s.conn
	current := s.gen == gen
	s.mu.Unlock()
	if current && conn != nil {
		_ = conn.Close()
	}
}

func (s *Session) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// Connected reports whether a connection is installed.
func (s *Session) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

// Reconnects reports how many connections were installed after the first.
func (s *Session) Reconnects() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == 0 {
		return 0
	}
	return s.gen - 1
}

// DialFailures reports how many dial attempts failed.
func (s *Session) DialFailures() uint64 { return s.dialFailures.Load() }

// Done is closed when the session has ended for good.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the error that ended the session (ErrClosed after Close), or
// nil while it runs — including between connections.
func (s *Session) Err() error {
	select {
	case <-s.done:
	default:
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the session: the current connection is closed and the
// supervisor joined. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		close(s.closingCh)
		if !s.started {
			s.started = true
			s.err = ErrClosed
			close(s.done)
		}
	}
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	<-s.done
}
