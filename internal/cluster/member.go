package cluster

import (
	"crypto/tls"
	"fmt"
	"sync/atomic"
	"time"

	"nodesampling/internal/netgossip"
)

// Member connection tuning: the forward queue's capacity in batches, the
// per-attempt dial bound, the per-frame write bound, and the redial
// backoff range (the first retry comes within 50ms, so a fleet booting
// together meshes quickly).
const (
	forwardQueue = 256
	dialTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	minBackoff   = 50 * time.Millisecond
	maxBackoff   = 2 * time.Second
)

// memberConn is the persistent framed connection to one remote member: a
// netgossip.Session (dial, redial, generation-tagged RPC) plus a bounded
// forward queue drained by a writer goroutine onto it, and the placement
// updates the member announces back.
type memberConn struct {
	c    *Cluster
	addr string
	s    *netgossip.Session
	q    chan []uint64 // forward batches awaiting delivery

	forwardedBatches atomic.Uint64
	forwardedIDs     atomic.Uint64
	forwardErrors    atomic.Uint64
	fallbackIDs      atomic.Uint64
	sampleRPCs       atomic.Uint64
	sampleErrors     atomic.Uint64
}

func newMemberConn(c *Cluster, addr string, tlsCfg *tls.Config) *memberConn {
	mc := &memberConn{c: c, addr: addr, q: make(chan []uint64, forwardQueue)}
	mc.s = netgossip.NewSession(netgossip.SessionConfig{
		Addrs:        []string{addr},
		TLS:          tlsCfg,
		DialTimeout:  dialTimeout,
		WriteTimeout: writeTimeout,
		MinBackoff:   minBackoff,
		MaxBackoff:   maxBackoff,
		OnConnect: func() error {
			c.logger.Info("cluster member connected", "member", addr)
			return nil
		},
		OnFrame: mc.onFrame,
		OnDisconnect: func(err error) {
			c.logger.Warn("cluster member disconnected", "member", addr, "error", err)
		},
	})
	return mc
}

// onFrame applies the placement updates a member announces; anything else
// that is not an RPC response is a protocol breach that recycles the
// connection.
func (mc *memberConn) onFrame(f netgossip.Frame) error {
	if f.Type != netgossip.FramePlacementUpdate {
		return fmt.Errorf("unexpected frame type %d", f.Type)
	}
	mc.c.ApplyPlacement(f.Token, int(f.SlotFrom), int(f.SlotTo), int(f.Owner))
	return nil
}

// forward enqueues a batch (taking ownership of the slice); a full queue
// falls back to local ingest immediately rather than blocking the hot
// ingest path behind a slow member.
func (mc *memberConn) forward(ids []uint64) {
	select {
	case mc.q <- ids:
	default:
		mc.fallbackIDs.Add(uint64(len(ids)))
		mc.c.fallback(ids)
	}
}

// run drains the forward queue onto the session until the cluster closes,
// tagging every Forward frame with the current placement epoch so the
// receiver can spot a stale routing decision. A batch that cannot be
// written (member down, write failed) goes to the fallback sink, and so
// does whatever is still queued at shutdown: the cluster layer never
// loses ids.
func (mc *memberConn) run() {
	defer mc.c.wg.Done()
	defer mc.drainToFallback()
	for {
		select {
		case ids := <-mc.q:
			if err := mc.s.Write(netgossip.Frame{Type: netgossip.FrameForward, Token: mc.c.Epoch(), IDs: ids}); err != nil {
				mc.forwardErrors.Add(1)
				mc.fallbackIDs.Add(uint64(len(ids)))
				mc.c.fallback(ids)
				continue
			}
			mc.forwardedBatches.Add(1)
			mc.forwardedIDs.Add(uint64(len(ids)))
		case <-mc.c.closing:
			return
		}
	}
}

// rpc runs one request/response exchange on the session, naming the
// member in any failure.
func (mc *memberConn) rpc(req netgossip.Frame, want netgossip.FrameType, timeout time.Duration) (netgossip.Frame, error) {
	resp, err := mc.s.Call(req, want, timeout)
	if err != nil {
		return netgossip.Frame{}, fmt.Errorf("cluster: member %s: %w", mc.addr, err)
	}
	return resp, nil
}

// sampleLocal asks the member for n uniform draws from its own pool along
// with its current |Γ| weight.
func (mc *memberConn) sampleLocal(n int, timeout time.Duration) (gamma uint64, ids []uint64, err error) {
	mc.sampleRPCs.Add(1)
	r, err := mc.rpc(netgossip.Frame{Type: netgossip.FrameSampleLocal, N: uint32(n)}, netgossip.FrameSampleLocalResp, timeout)
	if err != nil {
		mc.sampleErrors.Add(1)
		return 0, nil, err
	}
	return r.Token, r.IDs, nil
}

// migrate transfers a migration blob and waits for the ack carrying the
// placement epoch the target installed.
func (mc *memberConn) migrate(blob []byte, timeout time.Duration) (uint64, error) {
	r, err := mc.rpc(netgossip.Frame{Type: netgossip.FrameMigrateState, Blob: blob}, netgossip.FrameMigrateAck, timeout)
	if err != nil {
		return 0, err
	}
	return r.Token, nil
}

// sendPlacement announces a placement change on the connection,
// best-effort: a down member misses it and catches up via stale-forward
// epochs.
func (mc *memberConn) sendPlacement(epoch uint64, from, to, owner int) {
	_ = mc.s.Write(netgossip.Frame{
		Type:     netgossip.FramePlacementUpdate,
		Token:    epoch,
		SlotFrom: uint32(from),
		SlotTo:   uint32(to),
		Owner:    uint32(owner),
	})
}

// drainToFallback hands every still-queued forward batch to local ingest.
func (mc *memberConn) drainToFallback() {
	for {
		select {
		case ids := <-mc.q:
			mc.fallbackIDs.Add(uint64(len(ids)))
			mc.c.fallback(ids)
		default:
			return
		}
	}
}
