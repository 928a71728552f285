package netgossip

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// loopback returns a live loopback listener closed at cleanup.
func loopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// acceptInto hands every accepted connection to conns, closing them all at
// cleanup.
func acceptInto(t *testing.T, ln net.Listener) <-chan net.Conn {
	t.Helper()
	conns := make(chan net.Conn, 8) // more than any test accepts
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
			conns <- conn
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		for _, c := range held {
			_ = c.Close()
		}
	})
	return conns
}

func next(t *testing.T, conns <-chan net.Conn) net.Conn {
	t.Helper()
	select {
	case c := <-conns:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no connection arrived")
		return nil
	}
}

// pongs answers every Ping on conn until the connection fails.
func pongs(conn net.Conn) {
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		if f.Type == FramePing {
			if WriteFrame(conn, Frame{Type: FramePong, Token: f.Token}) != nil {
				return
			}
		}
	}
}

func redialConfig(addrs ...string) SessionConfig {
	return SessionConfig{
		Addrs:       addrs,
		DialTimeout: 5 * time.Second,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	}
}

// TestSessionSkipsStaleGenerationResponse pins the stale-pong defence: a
// response buffered by a previous connection can surface exactly between a
// call's slot drain and its answer. Without generation tags the call would
// take the stale token and condemn a healthy connection. The window is
// reproduced deterministically: the server holds the real pong back while
// a previous-generation pong is delivered.
func TestSessionSkipsStaleGenerationResponse(t *testing.T) {
	ln := loopback(t)
	conns := acceptInto(t, ln)
	conn, err := DialConn(ln.Addr().String(), nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{})
	t.Cleanup(s.Close)
	s.Start(conn)
	server := next(t, conns)

	type result struct {
		f   Frame
		err error
	}
	done := make(chan result, 1)
	go func() {
		f, err := s.Call(Frame{Type: FramePing, Token: 5}, FramePong, 10*time.Second)
		done <- result{f, err}
	}()
	if f, err := ReadFrame(server); err != nil || f.Type != FramePing {
		t.Fatalf("server read %v, %v; want the ping", f.Type, err)
	}
	// The call has drained the slot and written its frame; now the previous
	// connection's leftover pong arrives.
	s.deliver(response{gen: 0, f: Frame{Type: FramePong, Token: 777}})
	if err := WriteFrame(server, Frame{Type: FramePong, Token: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || r.f.Token != 5 {
			t.Fatalf("call = token %d, %v; want the current connection's pong 5", r.f.Token, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call never completed")
	}
	// The slot is not poisoned and the connection was never condemned.
	go pongs(server)
	if f, err := s.Call(Frame{Type: FramePing, Token: 6}, FramePong, 10*time.Second); err != nil || f.Token != 6 {
		t.Fatalf("follow-up call = token %d, %v", f.Token, err)
	}
	if !s.Connected() || s.Err() != nil {
		t.Fatalf("healthy connection torn down: connected=%v err=%v", s.Connected(), s.Err())
	}
}

// TestSessionCountsReconnectBeforeConnectHook pins the ordering that keeps
// a resubscribing client honest: by the time the connect hook's first frame
// reaches the server, Reconnects already counts that connection. The hook
// is held until the server has looked, so counting after the hook would
// fail deterministically.
func TestSessionCountsReconnectBeforeConnectHook(t *testing.T) {
	ln := loopback(t)
	conns := acceptInto(t, ln)
	checked := make(chan struct{})
	var s *Session
	cfg := redialConfig(ln.Addr().String())
	cfg.OnConnect = func() error {
		if err := s.Write(Frame{Type: FramePing, Token: 1}); err != nil {
			return err
		}
		<-checked
		return nil
	}
	s = NewSession(cfg)
	t.Cleanup(s.Close)
	s.Start(nil)

	for want := uint64(0); want < 2; want++ {
		conn := next(t, conns)
		if f, err := ReadFrame(conn); err != nil || f.Type != FramePing {
			t.Fatalf("connection %d: read %v, %v; want the hook's ping", want, f.Type, err)
		}
		got := s.Reconnects()
		checked <- struct{}{}
		if got != want {
			t.Fatalf("connection %d: Reconnects() = %d when the hook's frame arrived, want %d", want, got, want)
		}
		if want == 0 {
			_ = conn.Close() // force the reconnect
		} else {
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}
}

// TestSessionTimeoutSparesSuccessor: a call whose connection died and was
// replaced before its timeout fired must drop nothing — the successor owes
// the call no answer and stays up.
func TestSessionTimeoutSparesSuccessor(t *testing.T) {
	ln := loopback(t)
	conns := acceptInto(t, ln)
	s := NewSession(redialConfig(ln.Addr().String()))
	expire := make(chan time.Time)
	calls := 0 // guarded by rpcMu: after runs inside Call
	s.after = func(d time.Duration) <-chan time.Time {
		calls++
		if calls == 1 {
			return expire
		}
		return time.After(d)
	}
	t.Cleanup(s.Close)
	s.Start(nil)
	first := next(t, conns)
	waitFor(t, "the first connection to be installed", s.Connected)

	callErr := make(chan error, 1)
	go func() {
		_, err := s.Call(Frame{Type: FramePing, Token: 1}, FramePong, time.Hour)
		callErr <- err
	}()
	if f, err := ReadFrame(first); err != nil || f.Type != FramePing {
		t.Fatalf("first connection read %v, %v; want the ping", f.Type, err)
	}
	_ = first.Close() // dies without answering
	second := next(t, conns)
	waitFor(t, "the successor to be installed", func() bool { return s.Reconnects() == 1 && s.Connected() })
	close(expire) // only now does the call time out
	if err := <-callErr; !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("call error %v, want ErrRPCTimeout", err)
	}
	go pongs(second)
	if f, err := s.Call(Frame{Type: FramePing, Token: 2}, FramePong, 10*time.Second); err != nil || f.Token != 2 {
		t.Fatalf("call on the successor = token %d, %v", f.Token, err)
	}
	if got := s.Reconnects(); got != 1 {
		t.Fatalf("Reconnects() = %d, want 1: the timeout dropped the successor", got)
	}
}

// TestSessionMaxAttemptsGivesUp: with nothing to dial, the session spends
// exactly its attempt budget and ends with an error naming it.
func TestSessionMaxAttemptsGivesUp(t *testing.T) {
	cfg := redialConfig(deadAddr(t))
	cfg.MaxAttempts = 3
	s := NewSession(cfg)
	t.Cleanup(s.Close)
	s.Start(nil)
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session never gave up")
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("Err() = %v, want the exhausted budget named", err)
	}
	if got := s.DialFailures(); got != 3 {
		t.Fatalf("DialFailures() = %d, want 3", got)
	}
	if err := s.Write(Frame{Type: FramePing, Token: 1}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("write after giving up = %v", err)
	}
}

// TestSessionRotatesAddresses: a dead first address costs one attempt, then
// the session moves on to the next one within a budget of two.
func TestSessionRotatesAddresses(t *testing.T) {
	ln := loopback(t)
	conns := acceptInto(t, ln)
	cfg := redialConfig(deadAddr(t), ln.Addr().String())
	cfg.MaxAttempts = 2
	s := NewSession(cfg)
	t.Cleanup(s.Close)
	s.Start(nil)
	go pongs(next(t, conns))
	waitFor(t, "the connection to be installed", s.Connected)
	if _, err := s.Call(Frame{Type: FramePing, Token: 1}, FramePong, 10*time.Second); err != nil {
		t.Fatalf("call over the rotated-to address: %v", err)
	}
	if got := s.DialFailures(); got != 1 {
		t.Fatalf("DialFailures() = %d, want 1", got)
	}
}
