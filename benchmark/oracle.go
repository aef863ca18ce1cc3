package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// maxPulls bounds the pull queries of one oracle pass. Every subscription
// is always compared with the generator's model; the pull query — the
// paper's contract proper — runs for every distinct query up to this many,
// fullest results first: a pull scans the collection, which on write-stream
// holds 80 000 one-KiB documents by then, and match-wide has 3 000 queries.
const maxPulls = 64

// oracle checks the paper's contract at quiescence: for every standing
// subscription, the result the client rebuilt from its event stream equals
// what a pull query over the same connection returns now. Three views must
// agree — the client's, the database's (pull), and the generator's model of
// what it wrote; each disagreement is one failed operation, printed with
// its query. It runs after the generators have stopped, so it may use their
// models and write to their sockets.
func (r *run) oracle() {
	wl := r.wl
	type job struct {
		qi    int
		model []docRef
	}
	jobs := make([]job, len(wl.queries))
	for qi, q := range wl.queries {
		jobs[qi] = job{qi, r.conns[int(q.slot)%r.nconns].gen.result(q)}
	}
	byFill := make([]int, len(jobs))
	for i := range byFill {
		byFill[i] = i
	}
	sort.SliceStable(byFill, func(a, b int) bool { return len(jobs[byFill[a]].model) > len(jobs[byFill[b]].model) })
	pull := map[int]bool{}
	for _, qi := range byFill[:min(maxPulls, len(byFill))] {
		pull[qi] = true
	}
	for _, j := range jobs {
		q := wl.queries[j.qi]
		text := func() string { return string(wl.appendQuery(nil, q, 0)) }
		if pull[j.qi] {
			c := r.conns[j.qi%r.nconns]
			got, err := c.pull(j.qi, q)
			if err != nil {
				r.abort(err)
				return
			}
			if why := differ(got, j.model, q.sorted); why != "" {
				r.fail("oracle: pull query differs from what was written: %s: %s", why, text())
			}
		}
		for k := 0; k < wl.subsPerQuery; k++ {
			sub := j.qi*wl.subsPerQuery + k
			r.oracleChecked++
			st := &r.subs[sub]
			var have []docRef
			if st.sorted {
				have = st.order
			} else {
				for no, w := range st.set {
					have = append(have, docRef{no, w})
				}
			}
			if why := differ(have, j.model, q.sorted); why != "" {
				r.fail("oracle: sub s%d: push-maintained result differs from the pull result: %s: %s", sub, why, text())
			}
		}
	}
}

// pull runs one query over the connection and returns its documents.
func (c *cconn) pull(n int, q queryDef) ([]docRef, error) {
	b := append([]byte(nil), `{"op":"query","id":"q`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `","query":`...)
	b = c.r.wl.appendQuery(b, q, 0)
	b = append(b, '}', '\n')
	c.send(b)
	select {
	case docs := <-c.results:
		return docs, nil
	case <-c.done:
		return nil, fmt.Errorf("conn %d closed during the oracle: %v", c.idx, c.readErr)
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("conn %d: pull query q%d unanswered after 10 s", c.idx, n)
	}
}

// differ explains how two results differ, or returns "".
func differ(got, want []docRef, sorted bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d documents instead of %d", len(got), len(want))
	}
	if sorted {
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("position %d holds d%d~%d instead of d%d~%d", i, got[i].no, got[i].w, want[i].no, want[i].w)
			}
		}
		return ""
	}
	idx := make(map[int32]int32, len(want))
	for _, d := range want {
		idx[d.no] = d.w
	}
	for _, d := range got {
		if w, ok := idx[d.no]; !ok {
			return fmt.Sprintf("d%d should not be in the result", d.no)
		} else if w != d.w {
			return fmt.Sprintf("d%d is at version ~%d instead of ~%d", d.no, d.w, w)
		}
	}
	return ""
}
