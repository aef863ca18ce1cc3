package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// workload is one frozen traffic mix. The sizes were calibrated once on the
// seed commit (README.md, "Calibration") so that the steady phase runs near
// 40 % of that commit's peak_ops_per_s; they are part of the yardstick and
// do not change with the code under test.
type workload struct {
	name, why  string
	collection string

	// Standing population. A slot is the unit of query membership: every
	// document carries at most one slot, every standing query selects one
	// slot, and slot s is written only through connection s mod conns, so
	// the generator's model of each slot is exact without reading back.
	slots        int
	queries      []queryDef
	subsPerQuery int
	preload      int // documents inserted during setup, across all slots
	preloadCold  int // of which carry no slot

	writeRate float64 // open-loop writes/s, all connections together
	subRate   float64 // admission phase: subscribe→verify→cancel, subscribes/s
	// Peak phase: closed loop. Write workloads keep writeWindow
	// uncompleted writes per connection; subscribe-churn keeps subWindow
	// unadmitted subscribes per connection beside its open-loop writes.
	writeWindow int
	subWindow   int
	// trickle lists the shapes the subscribe stream alternates between; the
	// slot is chosen per subscribe.
	trickle []queryDef

	pad string // filler bringing documents to the workload's size
}

// queryDef is one distinct standing query.
type queryDef struct {
	slot          int32
	sorted        bool
	limit, offset int
	minRank       int64 // > 0: a second predicate, rank field >= minRank
}

const (
	matchWide      = "match-wide"
	writeStream    = "write-stream"
	subscribeChurn = "subscribe-churn"
	fanoutTopK     = "fanout-topk"
)

// churnRankSpan bounds subscribe-churn's sort key r, which is
// rng(1000)*100000 + document number.
const churnRankSpan = 1000 * 100000

var workloadNames = []string{matchWide, writeStream, subscribeChurn, fanoutTopK}

func lookupWorkload(name string) *workload {
	var w workload
	switch name {
	case matchWide:
		w = workload{
			why:        "3 000 unsorted range subscriptions, each hit write matches exactly one: core matching does nearly all the work",
			collection: "mw", slots: 3000, subsPerQuery: 1,
			writeRate: 200, subRate: 40, writeWindow: 8,
			trickle: []queryDef{{}},
			pad:     strings.Repeat("m", 130),
		}
		for s := 0; s < w.slots; s++ {
			w.queries = append(w.queries, queryDef{slot: int32(s)})
		}
	case writeStream:
		w = workload{
			why:        "100 queries, 1 KiB nested docs, insert/update/delete with 1 in 8 a hit: storage, wire codec, bus hop and topology routing dominate",
			collection: "ws", slots: 100, subsPerQuery: 1,
			preload: 4000, preloadCold: 3000,
			writeRate: 1000, subRate: 15, writeWindow: 8,
			trickle: []queryDef{{}},
			pad:     strings.Repeat("w", 620),
		}
		for s := 0; s < w.slots; s++ {
			w.queries = append(w.queries, queryDef{slot: int32(s)})
		}
	case subscribeChurn:
		w = workload{
			why:        "20 000 docs, membership-flipping updates, subscribes to 1 000-doc group queries: admission beside writes through storage, core and appserver",
			collection: "sc", slots: 20, subsPerQuery: 1,
			preload:   20000,
			writeRate: 200, subRate: 20, subWindow: 1,
			trickle: []queryDef{{}, {}, {sorted: true, limit: 50, offset: 10}},
			pad:     strings.Repeat("c", 120),
		}
		// The 40 probes that carry notify_*: each group whole, and each
		// group's upper half by r. (Sorted probes would be the natural
		// second set, but on the seed commit a sorted window that loses
		// members and then gains one beyond its last tracked entry ends up
		// wrong at quiescence — README.md, "Findings" — and a workload may
		// not fail at its baseline.)
		for s := 0; s < w.slots; s++ {
			w.queries = append(w.queries, queryDef{slot: int32(s)})
		}
		for s := 0; s < w.slots; s++ {
			w.queries = append(w.queries, queryDef{slot: int32(s), minRank: churnRankSpan / 2})
		}
	case fanoutTopK:
		w = workload{
			why:        "20 sorted top-10 queries x 32 client subscriptions each: sorting stage, appserver apply and the gateway's encode-once fan-out dominate",
			collection: "ft", slots: 20, subsPerQuery: 32,
			preload:   5000,
			writeRate: 300, subRate: 40, writeWindow: 1,
			trickle: []queryDef{{sorted: true, limit: 10}},
			pad:     strings.Repeat("f", 40),
		}
		for s := 0; s < w.slots; s++ {
			w.queries = append(w.queries, queryDef{slot: int32(s), sorted: true, limit: 10})
		}
	default:
		return nil
	}
	w.name = name
	return &w
}

// ---- wire text of queries and documents --------------------------------

// appendFilter writes the filter selecting a slot. trickle > 0 adds a
// predicate that is always true but makes the query distinct, so the
// gateway cannot serve the subscribe from a shared upstream.
func (w *workload) appendFilter(b []byte, q queryDef, trickle int) []byte {
	slot := q.slot
	switch w.name {
	case matchWide:
		b = append(b, `{"v":{"$gte":`...)
		b = strconv.AppendInt(b, int64(slot)*10, 10)
		b = append(b, `,"$lt":`...)
		b = strconv.AppendInt(b, int64(slot)*10+10, 10)
		b = append(b, '}')
	case writeStream:
		b = append(b, `{"h":`...)
		b = strconv.AppendInt(b, int64(slot), 10)
	case subscribeChurn:
		b = append(b, `{"g":`...)
		b = strconv.AppendInt(b, int64(slot), 10)
	case fanoutTopK:
		b = append(b, `{"b":`...)
		b = strconv.AppendInt(b, int64(slot), 10)
	}
	if q.minRank > 0 {
		b = append(b, `,"r":{"$gte":`...)
		b = strconv.AppendInt(b, q.minRank, 10)
		b = append(b, '}')
	}
	if trickle > 0 {
		b = append(b, `,"n":{"$gte":-`...)
		b = strconv.AppendInt(b, int64(trickle), 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendQuery writes a query spec object.
func (w *workload) appendQuery(b []byte, q queryDef, trickle int) []byte {
	b = append(b, `{"collection":"`...)
	b = append(b, w.collection...)
	b = append(b, `","filter":`...)
	b = w.appendFilter(b, q, trickle)
	if q.sorted {
		if w.name == fanoutTopK {
			b = append(b, `,"sort":[{"path":"s","desc":true}]`...)
		} else {
			b = append(b, `,"sort":[{"path":"r"}]`...)
		}
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(q.limit), 10)
		if q.offset > 0 {
			b = append(b, `,"offset":`...)
			b = strconv.AppendInt(b, int64(q.offset), 10)
		}
	}
	if trickle > 0 && w.name == subscribeChurn {
		// A 1 000-document initial result in full is three times the
		// gateway's default 64 KiB outbound budget, and while it is queued
		// the gateway sheds the data events of every other subscription on
		// the connection. Projected to the version token it fits.
		b = append(b, `,"projection":["w"]`...)
	}
	return append(b, '}')
}

func appendToken(b []byte, seq int32) []byte {
	b = append(b, '"', '~')
	b = strconv.AppendInt(b, int64(seq), 10)
	return append(b, '~', '"')
}

// appendDoc writes a full document for an insert.
func (w *workload) appendDoc(b []byte, d *mdoc, rng *rand.Rand) []byte {
	b = append(b, `{"_id":"d`...)
	b = strconv.AppendInt(b, int64(d.no), 10)
	b = append(b, `","n":0,"w":`...)
	b = appendToken(b, d.w)
	switch w.name {
	case matchWide:
		v := int64(-1 - rng.Intn(1000))
		if d.slot >= 0 {
			v = int64(d.slot)*10 + int64(rng.Intn(10))
		}
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, v, 10)
	case writeStream:
		b = append(b, `,"h":`...)
		b = strconv.AppendInt(b, int64(d.slot), 10)
		b = append(b, `,"user":{"name":"u`...)
		b = strconv.AppendInt(b, int64(rng.Intn(100000)), 10)
		b = append(b, `","score":0,"geo":{"lat":`...)
		b = strconv.AppendInt(b, int64(rng.Intn(180)-90), 10)
		b = append(b, `,"lon":`...)
		b = strconv.AppendInt(b, int64(rng.Intn(360)-180), 10)
		b = append(b, `},"tags":["alpha","beta","gamma"]},"items":[{"sku":"a1","qty":1,"price":9.5},{"sku":"b2","qty":2,"price":19.25},{"sku":"c3","qty":3,"price":4}]`...)
	case subscribeChurn:
		b = append(b, `,"g":`...)
		b = strconv.AppendInt(b, int64(d.slot), 10)
		b = append(b, `,"r":`...)
		b = strconv.AppendInt(b, d.rank, 10)
	case fanoutTopK:
		b = append(b, `,"b":`...)
		b = strconv.AppendInt(b, int64(d.slot), 10)
		b = append(b, `,"s":`...)
		b = strconv.AppendInt(b, d.rank, 10)
	}
	b = append(b, `,"pad":"`...)
	b = append(b, w.pad...)
	return append(b, `"}`...)
}

// ---- the generator's model ----------------------------------------------

// mdoc is the generator's record of one live document.
type mdoc struct {
	no   int32
	slot int32 // -1: selected by no standing query
	rank int64 // sort key on sorted workloads; unique within a slot
	w    int32 // seq of the write that produced the current version
}

// mslot is the model of one slot's membership — what every standing query
// on the slot must hold at quiescence, and what a trickle subscribe must
// see in its initial result.
type mslot struct {
	members map[int32]*mdoc
	order   []*mdoc // query order; kept only on sorted workloads
}

func mix(no, w int32) uint64 {
	z := uint64(uint32(no))<<32 | uint64(uint32(w))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digest summarises a result list: order-insensitive sum for unsorted
// queries, order-sensitive fold for sorted ones.
func digest(refs []docRef, sorted bool) uint64 {
	var h uint64
	for _, r := range refs {
		if sorted {
			h = (h ^ mix(r.no, r.w)) * 0x100000001b3
		} else {
			h += mix(r.no, r.w)
		}
	}
	return h
}

// deque hands out update targets least-recently-written first, so two
// writes to one key are never in flight together: the matching stage drops
// an after-image older than one it has seen (staleness avoidance), which
// would make "every hit notified" inexact by design rather than by defect.
type deque struct {
	items []*mdoc
	head  int
}

func (q *deque) len() int     { return len(q.items) - q.head }
func (q *deque) push(d *mdoc) { q.items = append(q.items, d) }

// pop takes one of the 8 oldest entries, chosen by rng.
func (q *deque) pop(rng *rand.Rand) *mdoc {
	k := q.len()
	if k == 0 {
		return nil
	}
	if k > 8 {
		k = 8
	}
	j := q.head + rng.Intn(k)
	q.items[q.head], q.items[j] = q.items[j], q.items[q.head]
	d := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head > 4096 && q.head > len(q.items)/2 {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return d
}

// gen produces one connection's operations from the seed. It is touched by
// that connection's generator goroutine alone while the run is live, and by
// the oracle after it has stopped.
type gen struct {
	wl     *workload
	conn   int
	conns  int
	rng    *rand.Rand
	nextNo int32 // document numbers are conn + k*conns
	own    []int32
	slots  map[int32]*mslot
	hot    deque // slotted documents eligible for update
	cold   deque // unslotted ones
	turn   int   // round-robin cursor over own slots
	nsub   int   // trickle subscribes issued
	last   int32 // slot of the most recent hit, favoured by the trickle
	ophash uint64
	buf    []byte
}

func newGen(wl *workload, seed int64, conn, conns int) *gen {
	g := &gen{
		wl: wl, conn: conn, conns: conns,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + int64(len(wl.name)))),
		nextNo: int32(conn),
		slots:  map[int32]*mslot{},
		ophash: 0xcbf29ce484222325,
	}
	for s := conn; s < wl.slots; s += conns {
		g.own = append(g.own, int32(s))
	}
	g.last = g.own[0]
	return g
}

func (g *gen) note(vals ...int64) {
	for _, v := range vals {
		g.ophash = (g.ophash ^ uint64(v)) * 0x100000001b3
	}
}

func (g *gen) slot(s int32) *mslot {
	m := g.slots[s]
	if m == nil {
		m = &mslot{members: map[int32]*mdoc{}}
		g.slots[s] = m
	}
	return m
}

func (g *gen) before(a, b *mdoc) bool {
	if g.wl.name == fanoutTopK {
		return a.rank > b.rank
	}
	return a.rank < b.rank
}

func (g *gen) sortedWL() bool { return g.wl.name == fanoutTopK || g.wl.name == subscribeChurn }

// join and leave keep a slot's membership and order current.
func (g *gen) join(d *mdoc) {
	if d.slot < 0 {
		return
	}
	m := g.slot(d.slot)
	m.members[d.no] = d
	if g.sortedWL() {
		i := g.position(m, d)
		m.order = append(m.order, nil)
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = d
	}
}

func (g *gen) leave(d *mdoc) {
	if d.slot < 0 {
		return
	}
	m := g.slot(d.slot)
	delete(m.members, d.no)
	if g.sortedWL() {
		i := g.position(m, d)
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
}

// position is where d sits, or would be inserted, in a slot's query order.
func (g *gen) position(m *mslot, d *mdoc) int {
	return sort.Search(len(m.order), func(i int) bool { return !g.before(m.order[i], d) })
}

// expect counts the event frames that must carry d's current version: one
// per client subscription on every standing query whose visible result
// holds d.
func (g *gen) expect(d *mdoc) int {
	if d.slot < 0 {
		return 0
	}
	n := 0
	for _, q := range g.queriesOn(d.slot) {
		if d.rank < q.minRank {
			continue
		}
		if q.sorted {
			i := g.position(g.slot(d.slot), d)
			if i < q.offset || i >= q.offset+q.limit {
				continue
			}
		}
		n += g.wl.subsPerQuery
	}
	return n
}

// queriesOn lists the standing queries selecting a slot.
func (g *gen) queriesOn(slot int32) []queryDef {
	if g.wl.name == subscribeChurn {
		return []queryDef{g.wl.queries[slot], g.wl.queries[int(slot)+g.wl.slots]}
	}
	return g.wl.queries[slot : slot+1]
}

func (g *gen) ownSlot() int32 {
	return g.own[g.rng.Intn(len(g.own))]
}

func (g *gen) newDoc(slot int32, rank int64, seq int32) *mdoc {
	d := &mdoc{no: g.nextNo, slot: slot, rank: rank, w: seq}
	g.nextNo += int32(g.conns)
	return d
}

func (g *gen) head(op string, seq int32) {
	g.buf = append(g.buf[:0], `{"op":"`...)
	g.buf = append(g.buf, op...)
	g.buf = append(g.buf, `","id":"w`...)
	g.buf = strconv.AppendInt(g.buf, int64(seq), 10)
	g.buf = append(g.buf, `","collection":"`...)
	g.buf = append(g.buf, g.wl.collection...)
	g.buf = append(g.buf, '"')
}

func (g *gen) key(d *mdoc) {
	g.buf = append(g.buf, `,"key":"d`...)
	g.buf = strconv.AppendInt(g.buf, int64(d.no), 10)
	g.buf = append(g.buf, '"')
}

// insert emits an insert of a new document and files it in the model.
func (g *gen) insert(slot int32, rank int64, seq int32) int {
	d := g.newDoc(slot, rank, seq)
	g.note(1, int64(d.no), int64(slot), rank)
	g.head("insert", seq)
	g.buf = append(g.buf, `,"doc":`...)
	g.buf = g.wl.appendDoc(g.buf, d, g.rng)
	g.buf = append(g.buf, '}', '\n')
	g.join(d)
	if slot >= 0 {
		g.hot.push(d)
		g.last = slot
	} else {
		g.cold.push(d)
	}
	return g.expect(d)
}

// preloadOp is the k-th of this connection's setup inserts.
func (g *gen) preloadOp(k int, seq int32) int {
	w := g.wl
	coldPerConn := w.preloadCold / g.conns
	if k < coldPerConn {
		return g.insert(-1, 0, seq)
	}
	slot := g.own[k%len(g.own)]
	var rank int64
	switch w.name {
	case subscribeChurn:
		// Unique and immutable: the sort key of the sorted group queries.
		rank = int64(g.rng.Intn(1000))*100000 + int64(g.nextNo)
	case fanoutTopK:
		// Scores stay distinct for the whole run: the low three digits are
		// the document's index within its board and never change, because
		// every increment is a multiple of 1000.
		rank = int64(1+g.rng.Intn(50))*1000 + int64(k/len(g.own))
	}
	return g.insert(slot, rank, seq)
}

// nextWrite emits this connection's next measured write and returns how
// many event frames must carry it.
func (g *gen) nextWrite(seq int32) int {
	switch g.wl.name {
	case matchWide:
		slot := int32(-1)
		if g.rng.Intn(2) == 0 {
			slot = g.ownSlot()
		}
		return g.insert(slot, 0, seq)
	case writeStream:
		hit := g.rng.Intn(8) == 0
		pool := &g.cold
		if hit {
			pool = &g.hot
		}
		r := g.rng.Intn(10)
		switch {
		case r < 5 || pool.len() < 64:
			slot := int32(-1)
			if hit {
				slot = g.ownSlot()
			}
			return g.insert(slot, 0, seq)
		case r < 9:
			return g.touch(pool, seq)
		default:
			return g.remove(pool, seq)
		}
	case subscribeChurn:
		return g.move(seq)
	default:
		return g.bump(seq)
	}
}

// touch updates a document in place ($inc + $set), keeping its slot.
func (g *gen) touch(pool *deque, seq int32) int {
	d := pool.pop(g.rng)
	g.note(2, int64(d.no))
	d.w = seq // slot and rank stay: the model holds the document by pointer
	pool.push(d)
	g.head("update", seq)
	g.key(d)
	g.buf = append(g.buf, `,"update":{"$inc":{"n":1},"$set":{"user.score":`...)
	g.buf = strconv.AppendInt(g.buf, int64(seq), 10)
	g.buf = append(g.buf, `,"w":`...)
	g.buf = appendToken(g.buf, seq)
	g.buf = append(g.buf, "}}}\n"...)
	return g.expect(d)
}

// remove deletes a document. Its remove event carries no version, so it is
// checked by the oracle (the key must leave every result) and not timed.
func (g *gen) remove(pool *deque, seq int32) int {
	d := pool.pop(g.rng)
	g.note(3, int64(d.no))
	g.leave(d)
	g.head("delete", seq)
	g.key(d)
	g.buf = append(g.buf, '}', '\n')
	return 0
}

// move flips a document's group membership: a remove on the old group's
// queries, an add on the new group's.
func (g *gen) move(seq int32) int {
	d := g.hot.pop(g.rng)
	to := g.ownSlot()
	for len(g.own) > 1 && to == d.slot {
		to = g.ownSlot()
	}
	g.note(4, int64(d.no), int64(to))
	g.leave(d)
	d.slot, d.w = to, seq
	g.join(d)
	g.hot.push(d)
	g.last = to
	g.head("update", seq)
	g.key(d)
	g.buf = append(g.buf, `,"update":{"$set":{"g":`...)
	g.buf = strconv.AppendInt(g.buf, int64(to), 10)
	g.buf = append(g.buf, `,"w":`...)
	g.buf = appendToken(g.buf, seq)
	g.buf = append(g.buf, "}}}\n"...)
	return g.expect(d)
}

// bump raises a leaderboard score. Half the writes go to documents far
// below the window and reach no client; the other half lift a document in
// or near the top 10 past up to three neighbours. Scores only rise: a
// demotion would eat the sorted query's slack, and on the seed commit the
// window the sorting stage rebuilds after that is wrong at quiescence
// (README.md, "Findings"), so renewals stay outside this workload.
func (g *gen) bump(seq int32) int {
	g.turn++
	m := g.slot(g.own[g.turn%len(g.own)])
	var d *mdoc
	var delta int64
	switch {
	case g.rng.Intn(2) == 0:
		d = m.order[30+g.rng.Intn(len(m.order)-30)]
		delta = 1000
		if floor := m.order[20].rank - 5000; d.rank+delta > floor {
			delta = 0 // would climb towards the window: rewrite in place
		}
	default:
		i := g.rng.Intn(13)
		d = m.order[i]
		j := i - g.rng.Intn(4)
		if j < 0 {
			j = 0
		}
		delta = ((m.order[j].rank-d.rank)/1000 + 1) * 1000
	}
	g.note(5, int64(d.no), delta)
	g.leave(d)
	d.rank += delta
	d.w = seq
	g.join(d)
	g.head("update", seq)
	g.key(d)
	g.buf = append(g.buf, `,"update":{"$inc":{"s":`...)
	g.buf = strconv.AppendInt(g.buf, delta, 10)
	g.buf = append(g.buf, `},"$set":{"w":`...)
	g.buf = appendToken(g.buf, seq)
	g.buf = append(g.buf, "}}}\n"...)
	return g.expect(d)
}

// subscribeOp emits the n-th standing subscribe of this connection.
func (g *gen) subscribeOp(sub int) {
	q := g.wl.queries[sub/g.wl.subsPerQuery]
	g.buf = append(g.buf[:0], `{"op":"subscribe","id":"s`...)
	g.buf = strconv.AppendInt(g.buf, int64(sub), 10)
	g.buf = append(g.buf, `","query":`...)
	g.buf = g.wl.appendQuery(g.buf, q, 0)
	g.buf = append(g.buf, '}', '\n')
}

// trickleOp emits a subscribe to a query no one else holds and returns the
// initial result it must produce: the model's view of the slot at this
// point of the connection's op stream, which is the database's view when
// the gateway reaches the frame, since a connection's frames are handled in
// order and no other connection writes the slot.
func (g *gen) trickleOp(id int) (count int, dig uint64, sorted bool) {
	g.nsub++
	slot := g.last
	if g.nsub%2 == 0 {
		slot = g.ownSlot()
	}
	q := g.wl.trickle[g.nsub%len(g.wl.trickle)]
	q.slot = slot
	g.note(6, int64(slot), int64(q.limit))
	g.buf = append(g.buf[:0], `{"op":"subscribe","id":"c`...)
	g.buf = strconv.AppendInt(g.buf, int64(id), 10)
	g.buf = append(g.buf, `","query":`...)
	g.buf = g.wl.appendQuery(g.buf, q, id+1)
	g.buf = append(g.buf, '}', '\n')
	refs := g.result(q)
	return len(refs), digest(refs, q.sorted), q.sorted
}

// result is the model's answer to a standing query.
func (g *gen) result(q queryDef) []docRef {
	m := g.slot(q.slot)
	var refs []docRef
	if q.sorted {
		lo, hi := q.offset, q.offset+q.limit
		if lo > len(m.order) {
			lo = len(m.order)
		}
		if hi > len(m.order) {
			hi = len(m.order)
		}
		for _, d := range m.order[lo:hi] {
			refs = append(refs, docRef{d.no, d.w})
		}
		return refs
	}
	for _, d := range m.members {
		if d.rank >= q.minRank {
			refs = append(refs, docRef{d.no, d.w})
		}
	}
	return refs
}

// opSequenceHash digests the first n measured writes (and the subscribes
// between them) every connection would send for a seed, after its preload.
// Same workload, seed and connection count give the same hash whatever the
// timing of the run: the inputs are a function of the seed alone.
func opSequenceHash(wl *workload, seed int64, conns, n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	seq := int32(0)
	for c := 0; c < conns; c++ {
		g := newGen(wl, seed, c, conns)
		for k := 0; k < wl.preload/conns; k++ {
			seq++
			g.preloadOp(k, seq)
		}
		for k := 0; k < n; k++ {
			seq++
			g.nextWrite(seq)
			if k%16 == 0 {
				g.trickleOp(c + conns*g.nsub)
			}
		}
		h = (h ^ g.ophash) * 0x100000001b3
	}
	return h
}
