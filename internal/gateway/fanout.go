package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"invalidb/internal/appserver"
	"invalidb/internal/document"
	"invalidb/internal/query"
)

// eventHead is the constant prefix of every fanned-out event frame; the
// per-client subscription id and the shared body suffix are spliced after
// it, so broadcasting to N clients costs one body serialization plus N
// byte copies.
var eventHead = []byte(`{"op":"event","id":`)

// fanTarget is one client subscription attached to a shared query. The
// subscription id is cached pre-encoded (JSON string), so the hot path
// never touches encoding/json.
type fanTarget struct {
	c      *conn
	id     string
	idJSON []byte
}

// fanJob is one shard's slice of a broadcast, handed to a fan-out worker.
type fanJob struct {
	sq      *sharedQuery
	targets []fanTarget
	suffix  []byte
	control bool
}

// sharedQuery is the fan-out engine's unit of sharing: one upstream
// appserver.Subscription serving every client subscription with the same
// tenant-scoped query hash. It is refcounted — acquire on subscribe,
// release on unsubscribe/disconnect — and the last release closes the
// upstream, which terminates the pump.
type sharedQuery struct {
	g    *Server
	hash uint64

	// refs is guarded by g.mu (acquire/release run under it).
	refs int

	// initDone closes once the upstream subscribe finished; initErr is the
	// failure, if any. Late acquirers of an in-flight shared query park
	// here instead of racing the bootstrap.
	initDone chan struct{}
	initErr  error
	upstream *appserver.Subscription

	mu     sync.Mutex
	shards [][]fanTarget // subscriber lists, indexed by conn shard
	ready  bool          // true once the upstream delivered EventInitial

	// Pump-local scratch, touched only by the single pump goroutine: the
	// reusable body encoder and the per-shard snapshot taken under mu so
	// delivery runs without holding it.
	body     eventBody
	bodyBuf  bytes.Buffer
	enc      *json.Encoder
	suffix   []byte
	snapshot [][]fanTarget
	inflight sync.WaitGroup
}

// eventBody is the shared, per-event-encoded part of an event frame. Field
// names and order match Response so spliced frames decode identically.
type eventBody struct {
	Type  string              `json:"type,omitempty"`
	Key   string              `json:"key,omitempty"`
	Doc   document.Document   `json:"doc,omitempty"`
	Docs  []document.Document `json:"docs,omitempty"`
	Index int                 `json:"index,omitempty"`
	Message string            `json:"message,omitempty"`
}

// acquire returns the shared query for spec, creating the upstream
// subscription if this is the first reference. Concurrent acquirers of a
// new query share one bootstrap: the creator subscribes upstream while the
// rest wait on initDone.
func (g *Server) acquire(spec query.Spec) (*sharedQuery, error) {
	hash, err := g.srv.QueryHash(spec)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, fmt.Errorf("gateway: server closed")
	}
	if sq := g.queries[hash]; sq != nil {
		sq.refs++
		g.mu.Unlock()
		<-sq.initDone
		if sq.initErr != nil {
			g.release(sq)
			return nil, sq.initErr
		}
		return sq, nil
	}
	nShards := g.fanShards
	sq := &sharedQuery{
		g:        g,
		hash:     hash,
		refs:     1,
		initDone: make(chan struct{}),
		shards:   make([][]fanTarget, nShards),
		snapshot: make([][]fanTarget, nShards),
	}
	sq.enc = json.NewEncoder(&sq.bodyBuf)
	g.queries[hash] = sq
	g.mu.Unlock()

	// The bootstrap query runs outside g.mu: it can be slow, and other
	// queries' subscribes must not serialize behind it.
	up, err := g.srv.Subscribe(spec)
	if err != nil {
		sq.initErr = err
		close(sq.initDone)
		g.release(sq)
		return nil, err
	}
	sq.upstream = up
	close(sq.initDone)
	g.pumpWG.Add(1)
	go sq.pump()
	return sq, nil
}

// release drops one reference; the last reference tears the upstream down
// and forgets the query.
func (g *Server) release(sq *sharedQuery) {
	g.mu.Lock()
	sq.refs--
	last := sq.refs == 0
	if last && g.queries[sq.hash] == sq {
		delete(g.queries, sq.hash)
	}
	g.mu.Unlock()
	if last {
		<-sq.initDone
		if sq.upstream != nil {
			_ = sq.upstream.Close()
		}
	}
}

// add attaches a client subscription. If the upstream already delivered
// its initial result, an equivalent EventInitial is synthesized from the
// maintained result under sq.mu, so no event published after this point
// can be missed (an event already folded into Result but still in flight
// on the broadcast path may arrive twice; per-key events are idempotent,
// so clients converge).
func (sq *sharedQuery) add(c *conn, id string) {
	idJSON, err := json.Marshal(id)
	if err != nil {
		return
	}
	sq.mu.Lock()
	if sq.ready {
		docs := sq.upstream.Result()
		if data, err := json.Marshal(&Response{Op: "event", ID: id, Type: initialType, Docs: docs, Index: -1}); err == nil {
			c.enqueueControl(append(data, '\n'))
		}
	}
	sq.shards[c.shard] = append(sq.shards[c.shard], fanTarget{c: c, id: id, idJSON: idJSON})
	sq.mu.Unlock()
	// Re-check against a concurrent conn.close: if it copied c.subs before
	// our registration landed, its removal pass missed us.
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		sq.remove(c, id)
	}
}

// remove detaches a client subscription. Removing an absent target is a
// no-op, which the add/close race above relies on.
func (sq *sharedQuery) remove(c *conn, id string) {
	sq.mu.Lock()
	s := sq.shards[c.shard]
	for i := range s {
		if s[i].c == c && s[i].id == id {
			s[i] = s[len(s)-1]
			sq.shards[c.shard] = s[:len(s)-1]
			break
		}
	}
	sq.mu.Unlock()
}

// pump drains the shared upstream subscription and broadcasts each event.
// It exits when the last release closes the upstream.
func (sq *sharedQuery) pump() {
	defer sq.g.pumpWG.Done()
	for ev := range sq.upstream.C() {
		sq.broadcast(&ev)
	}
}

var initialType = appserver.EventInitial.String()

// broadcast serializes the event body exactly once, snapshots the
// subscriber lists under sq.mu, and delivers per-client frames — shard 0
// inline on the pump goroutine, the rest on the fan-out workers.
func (sq *sharedQuery) broadcast(ev *appserver.Event) {
	sq.encode(ev)
	// Lifecycle frames (initial result, errors, disconnect/reconnect) must
	// reach every client even when over budget: they are what a client
	// resynchronizes from.
	control := true
	switch ev.Type {
	case appserver.EventAdd, appserver.EventChange, appserver.EventChangeIndex, appserver.EventRemove:
		control = false
	}
	sq.mu.Lock()
	if ev.Type == appserver.EventInitial || ev.Type == appserver.EventReconnected {
		sq.ready = true
	}
	total := 0
	for i, s := range sq.shards {
		sq.snapshot[i] = append(sq.snapshot[i][:0], s...)
		total += len(s)
	}
	sq.mu.Unlock()
	if total == 0 {
		return
	}
	for i := 1; i < len(sq.snapshot); i++ {
		if len(sq.snapshot[i]) == 0 {
			continue
		}
		sq.inflight.Add(1)
		sq.g.fanJobs[i-1] <- fanJob{sq: sq, targets: sq.snapshot[i], suffix: sq.suffix, control: control}
	}
	deliver(sq.snapshot[0], sq.suffix, control)
	sq.inflight.Wait()
	sq.g.mFanned.Add(int64(total))
	sq.g.mBytesSaved.Add(int64(total-1) * int64(len(sq.suffix)))
}

// encode serializes the event body once into the reusable suffix buffer:
// everything after the per-client id, comma included, newline terminated.
func (sq *sharedQuery) encode(ev *appserver.Event) {
	sq.body = eventBody{Type: ev.Type.String(), Key: ev.Key, Doc: ev.Doc, Index: ev.Index}
	if ev.Type == appserver.EventInitial || ev.Type == appserver.EventReconnected {
		sq.body.Docs = ev.Docs
	}
	if ev.Err != nil && (ev.Type == appserver.EventError || ev.Type == appserver.EventDisconnected) {
		sq.body.Message = ev.Err.Error()
	}
	sq.bodyBuf.Reset()
	if err := sq.enc.Encode(&sq.body); err != nil {
		sq.bodyBuf.Reset()
		sq.bodyBuf.WriteString("{}\n")
	}
	body := sq.bodyBuf.Bytes() // "{...}\n" — Encode appends the newline
	sq.suffix = sq.suffix[:0]
	if len(body) <= 3 { // empty body "{}\n": no fields to splice after the id
		sq.suffix = append(sq.suffix, '}', '\n')
	} else {
		sq.suffix = append(sq.suffix, ',')
		sq.suffix = append(sq.suffix, body[1:]...)
	}
	sq.g.mEncoded.Inc()
}

// deliver splices head+id+suffix into each target's outbound queue.
//
//invalidb:hotpath
func deliver(targets []fanTarget, suffix []byte, control bool) {
	for i := range targets {
		if control {
			t := &targets[i]
			t.c.enqueueControlFrame(t.idJSON, suffix)
			continue
		}
		t := &targets[i]
		t.c.enqueueEvent(t.idJSON, suffix)
	}
}

// fanWorker delivers broadcast jobs for one shard. Workers only stop once
// every pump has exited (Close closes done strictly after pumpWG), so a
// job already accepted is always fully delivered.
func (g *Server) fanWorker(jobs chan fanJob) {
	defer g.wg.Done()
	for {
		select {
		case j := <-jobs:
			deliver(j.targets, j.suffix, j.control)
			j.sq.inflight.Done()
		case <-g.done:
			return
		}
	}
}
