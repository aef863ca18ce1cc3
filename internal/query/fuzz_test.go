package query

import (
	"encoding/json"
	"testing"

	"invalidb/internal/document"
)

// FuzzMatch drives the query compiler and matcher with arbitrary filter and
// document JSON. Invariants:
//
//   - Compile rejects bad filters with an error, never a panic;
//   - Match never panics and is deterministic;
//   - a query survives the wire round-trip: recompiling q.Spec() preserves
//     the canonical hash (which routes subscriptions to grid rows) and the
//     match verdict;
//   - the compiled evaluator agrees with the reference evaluator
//     (reference_test.go) on every (filter, document) both accept.
func FuzzMatch(f *testing.F) {
	seeds := []struct{ filter, doc string }{
		{`{}`, `{"a":1}`},
		{`{"a":1}`, `{"a":1}`},
		{`{"a":{"$gt":0.5}}`, `{"a":1}`},
		// The paper's evaluation workload shape: random >= i AND random < j.
		{`{"random":{"$gte":10,"$lt":20}}`, `{"random":15}`},
		{`{"a":{"$in":[1,2,3]}}`, `{"a":2}`},
		{`{"$or":[{"a":1},{"b":{"$exists":true}}]}`, `{"b":null}`},
		{`{"$and":[{"a":{"$ne":3}},{"$nor":[{"b":2}]}]}`, `{"a":1,"b":1}`},
		{`{"tags":{"$elemMatch":{"$eq":"x"}}}`, `{"tags":["x","y"]}`},
		{`{"a.b.c":{"$ne":3}}`, `{"a":{"b":{"c":4}}}`},
		{`{"name":{"$regex":"^a.*b$"}}`, `{"name":"ab"}`},
		{`{"a":{"$type":"string"}}`, `{"a":"s"}`},
		{`{"a":{"$not":{"$lt":0}}}`, `{"a":[1,{"b":2},null]}`},
	}
	for _, c := range evaluatorCases {
		seeds = append(seeds, struct{ filter, doc string }{c.filter, c.doc})
	}
	for _, s := range seeds {
		f.Add([]byte(s.filter), []byte(s.doc))
	}
	f.Fuzz(func(t *testing.T, filterJSON, docJSON []byte) {
		var rawFilter map[string]any
		if err := json.Unmarshal(filterJSON, &rawFilter); err != nil {
			t.Skip()
		}
		var rawDoc map[string]any
		if err := json.Unmarshal(docJSON, &rawDoc); err != nil {
			t.Skip()
		}
		q, err := Compile(Spec{Collection: "fuzz", Filter: rawFilter})
		if err != nil {
			return // rejected is fine; panicking is not
		}
		d := document.Document(rawDoc)
		m1 := q.Match(d)
		if m2 := q.Match(d); m2 != m1 {
			t.Fatalf("Match not deterministic: %v then %v", m1, m2)
		}
		ref, err := refCompile(rawFilter)
		if err != nil {
			t.Fatalf("reference parser rejects a filter Compile accepts: %v", err)
		}
		if want := ref.Match(d); m1 != want {
			t.Fatalf("compiled evaluator = %v, reference = %v\nfilter %s\ndoc    %s", m1, want, filterJSON, docJSON)
		}
		q2, err := Compile(q.Spec())
		if err != nil {
			t.Fatalf("recompiling the query's own Spec failed: %v", err)
		}
		if q2.Hash() != q.Hash() {
			t.Fatalf("canonical hash not stable across Spec round-trip: %016x vs %016x", q.Hash(), q2.Hash())
		}
		if q2.Match(d) != m1 {
			t.Fatalf("round-tripped query disagrees on match: %v vs %v", q2.Match(d), m1)
		}
	})
}
