package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

// conn is one end-user client connection. Outbound frames go through a
// byte-budgeted double buffer instead of a channel of Responses: pending
// bytes are appended under outMu and swapped wholesale into the writer, so
// the data events a connection has queued are bounded by OutBudget (plus one
// in-flight batch) no matter how far the client falls behind. When the
// budget is exceeded, data events are shed (newest first, O(1)) and a resync
// marker is appended after the retained backlog — exactly where the gap is —
// mirroring the broker's session-drop discipline. Control frames are neither
// shed nor charged to the budget: a large initial result waiting in pending
// must not shed the data events of the connection's other subscriptions.
type conn struct {
	g     *Server
	nc    net.Conn
	shard int

	// greeted is true once the first frame ran tenant admission. Only the
	// readLoop touches it.
	greeted bool

	mu       sync.Mutex
	subs     map[string]*sharedQuery // client subscription id -> shared upstream
	tenant   string
	admitted bool
	closed   bool

	outMu        sync.Mutex
	outCond      sync.Cond
	pending      []byte // frames queued since the last writer swap
	pendingData  int    // bytes of pending that are data events: what OutBudget bounds
	writing      []byte // frames the writer is flushing (reused as next pending)
	wclosed      bool
	closeOnDrain bool
	needResync   bool
	dropped      uint64 // cumulative shed data events

	done sync.Once
}

func (c *conn) close() {
	c.done.Do(func() {
		c.mu.Lock()
		c.closed = true
		tenant, admitted := c.tenant, c.admitted
		subs := c.subs
		c.subs = map[string]*sharedQuery{}
		c.mu.Unlock()
		c.outMu.Lock()
		c.wclosed = true
		c.outCond.Broadcast()
		c.outMu.Unlock()
		_ = c.nc.Close()
		for id, sq := range subs {
			sq.remove(c, id)
			c.g.release(sq)
			c.g.releaseSub(tenant)
		}
		c.g.dropConn(c, tenant, admitted)
	})
}

// closeWhenDrained asks the write loop to flush what is queued and then
// close the connection — used to deliver a quota-rejection error before
// hanging up.
func (c *conn) closeWhenDrained() {
	c.outMu.Lock()
	c.closeOnDrain = true
	c.outCond.Signal()
	c.outMu.Unlock()
}

// enqueueEvent appends one pre-encoded event frame (constant header +
// cached subscription id + shared body suffix) to the outbound queue.
// Over-budget connections shed the event and are marked for a resync
// marker. This is the fan-out hot path: three appends and a cond signal,
// no marshalling, no allocation beyond buffer growth.
//
//invalidb:hotpath
func (c *conn) enqueueEvent(idJSON, suffix []byte) bool {
	c.outMu.Lock()
	if c.wclosed {
		c.outMu.Unlock()
		return false
	}
	n := len(eventHead) + len(idJSON) + len(suffix)
	if c.pendingData+n > c.g.opts.OutBudget {
		//invalidb:allow hotpathalloc shedding is off the steady-state path; the first drop logs once per connection
		c.shedLocked()
		c.outMu.Unlock()
		return false
	}
	c.pendingData += n
	c.pending = append(c.pending, eventHead...)
	c.pending = append(c.pending, idJSON...)
	c.pending = append(c.pending, suffix...)
	c.outCond.Signal()
	c.outMu.Unlock()
	return true
}

// shedLocked records one shed data event. Callers hold c.outMu.
func (c *conn) shedLocked() {
	c.dropped++
	c.needResync = true
	c.g.mDrops.Inc()
	if c.dropped == 1 {
		c.g.opts.Logf("gateway: slow client %s over %dB outbound budget: shedding events, resync marker pending",
			c.nc.RemoteAddr(), c.g.opts.OutBudget)
	}
	c.outCond.Signal()
}

// enqueueControlFrame is enqueueEvent without the budget check, for
// lifecycle events (initial, error, disconnected, reconnected) delivered
// through the broadcast path: they are what a client resynchronizes from,
// so they must land even on an over-budget connection.
func (c *conn) enqueueControlFrame(idJSON, suffix []byte) {
	c.outMu.Lock()
	if !c.wclosed {
		c.pending = append(c.pending, eventHead...)
		c.pending = append(c.pending, idJSON...)
		c.pending = append(c.pending, suffix...)
		c.outCond.Signal()
	}
	c.outMu.Unlock()
}

// enqueueControl appends a frame that must not be shed: acks, errors,
// results, initial results, and lifecycle events. Control traffic is
// bounded by the request rate and result sizes, so it stays outside the
// byte budget without threatening per-client memory.
func (c *conn) enqueueControl(frame []byte) {
	c.outMu.Lock()
	if !c.wclosed {
		c.pending = append(c.pending, frame...)
		c.outCond.Signal()
	}
	c.outMu.Unlock()
}

func (c *conn) send(r *Response) {
	data, err := json.Marshal(r)
	if err != nil {
		return
	}
	c.enqueueControl(append(data, '\n'))
}

func (c *conn) sendError(id, msg string) {
	c.send(&Response{Op: "error", ID: id, Message: msg})
}

var resyncHead = []byte(`{"op":"resync","dropped":`)

func (c *conn) writeLoop() {
	defer c.g.wg.Done()
	c.outMu.Lock()
	for {
		for len(c.pending) == 0 && !c.needResync && !c.wclosed && !c.closeOnDrain {
			c.outCond.Wait()
		}
		if c.wclosed {
			c.outMu.Unlock()
			return
		}
		c.pending, c.writing = c.writing[:0], c.pending
		c.pendingData = 0
		resync, dropped := c.needResync, c.dropped
		c.needResync = false
		finish := c.closeOnDrain
		c.outMu.Unlock()
		buf := c.writing
		if resync {
			// The shed events were newer than everything retained in this
			// batch, so the marker lands exactly at the gap.
			buf = append(buf, resyncHead...)
			buf = strconv.AppendUint(buf, dropped, 10)
			buf = append(buf, '}', '\n')
			c.writing = buf
			c.g.mResyncs.Inc()
		}
		if len(buf) > 0 {
			if _, err := c.nc.Write(buf); err != nil {
				c.close()
				return
			}
		}
		if finish {
			c.close()
			return
		}
		c.outMu.Lock()
	}
}

func (c *conn) readLoop() {
	defer c.g.wg.Done()
	defer c.close()
	dec := json.NewDecoder(bufio.NewReaderSize(c.nc, c.g.opts.ReadBuffer))
	dec.UseNumber() // integers beyond 2^53 survive; storage normalizes json.Number
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.sendError("", "malformed frame: "+err.Error())
			}
			return
		}
		c.handle(&req)
	}
}

func (c *conn) handle(req *Request) {
	if !c.greeted {
		c.greeted = true
		tenant := ""
		if req.Op == "hello" {
			tenant = req.Tenant
		}
		if !c.g.admitConn(c, tenant, req.ID) {
			return
		}
	}
	c.mu.Lock()
	admitted := c.admitted
	c.mu.Unlock()
	if !admitted {
		// The connection is draining its quota-rejection notice; ignore
		// everything the client pipelined behind the first frame.
		return
	}
	switch req.Op {
	case "hello":
		c.mu.Lock()
		mismatch := req.Tenant != "" && req.Tenant != c.tenant
		c.mu.Unlock()
		if mismatch {
			c.sendError(req.ID, "tenant already set for this connection")
			return
		}
		c.send(&Response{Op: "ok", ID: req.ID})
	case "subscribe":
		c.handleSubscribe(req)
	case "unsubscribe":
		c.mu.Lock()
		sq := c.subs[req.ID]
		delete(c.subs, req.ID)
		tenant := c.tenant
		c.mu.Unlock()
		if sq != nil {
			sq.remove(c, req.ID)
			c.g.release(sq)
			c.g.releaseSub(tenant)
		}
		c.send(&Response{Op: "ok", ID: req.ID})
	case "query":
		if req.Query == nil {
			c.sendError(req.ID, "query missing")
			return
		}
		docs, err := c.g.srv.Query(*req.Query)
		if err != nil {
			c.sendError(req.ID, err.Error())
			return
		}
		c.send(&Response{Op: "result", ID: req.ID, Docs: docs})
	case "insert":
		c.reply(req, c.g.srv.Insert(req.Collection, req.Doc))
	case "update":
		c.reply(req, c.g.srv.Update(req.Collection, req.Key, req.Update))
	case "delete":
		c.reply(req, c.g.srv.Delete(req.Collection, req.Key))
	default:
		c.sendError(req.ID, fmt.Sprintf("unknown op %q", req.Op))
	}
}

func (c *conn) reply(req *Request, err error) {
	if err != nil {
		c.sendError(req.ID, err.Error())
		return
	}
	c.send(&Response{Op: "ok", ID: req.ID})
}

func (c *conn) handleSubscribe(req *Request) {
	if req.Query == nil || req.ID == "" {
		c.sendError(req.ID, "subscribe needs id and query")
		return
	}
	c.mu.Lock()
	_, dup := c.subs[req.ID]
	tenant := c.tenant
	c.mu.Unlock()
	if dup {
		c.sendError(req.ID, "duplicate subscription id")
		return
	}
	if !c.g.admitSub(c) {
		c.g.opts.Logf("gateway: tenant %q subscription rejected by quota", tenant)
		c.sendError(req.ID, "tenant subscription quota exceeded")
		return
	}
	sq, err := c.g.acquire(*req.Query)
	if err != nil {
		c.g.releaseSub(tenant)
		c.sendError(req.ID, err.Error())
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.g.release(sq)
		c.g.releaseSub(tenant)
		return
	}
	c.subs[req.ID] = sq
	c.mu.Unlock()
	// The ack is enqueued before the subscriber is registered, so it
	// precedes the initial result and every event.
	c.send(&Response{Op: "ok", ID: req.ID})
	sq.add(c, req.ID)
}
