package core

import (
	"invalidb/internal/document"
	"invalidb/internal/topology"
)

// NewAggregationStage builds a Stage that maintains streaming aggregates —
// count, sum, average, minimum and maximum of a numeric field — over every
// registered query's result. It demonstrates the paper's extension plan
// (§8.1, "Aggregations & Joins"): additional query types are added as
// loosely coupled processing stages behind the filtering stage, without
// touching the scalability-critical matching grid.
//
// Aggregate updates are published as notifications with the reserved key
// "$aggregate" and a document {count, sum, avg, min, max}; minimum and
// maximum are maintained exactly (per-key values are tracked, so removals
// recompute them without rescanning the database).
func NewAggregationStage(field string, parallelism int) Stage {
	return Stage{
		Name:        "aggregate",
		Parallelism: parallelism,
		Factory: func(c *Cluster) topology.Bolt {
			return &aggregateBolt{c: c, field: field}
		},
	}
}

// AggregateKey is the notification key carrying aggregate documents.
const AggregateKey = "$aggregate"

type aggState struct {
	tenant string
	hash   uint64
	values map[string]float64 // result member key -> field value
	sum    float64
	seq    uint64
}

type aggregateBolt struct {
	c     *Cluster
	field string
	out   topology.Collector
	state map[uint64]*aggState
}

func (b *aggregateBolt) Prepare(ctx *topology.BoltContext, out topology.Collector) error {
	b.out = out
	b.state = map[uint64]*aggState{}
	return nil
}

func (b *aggregateBolt) Cleanup() {}

func (b *aggregateBolt) Execute(t *topology.Tuple) {
	if t.Component() == "tick" {
		return
	}
	kindV, _ := t.Get("kind")
	kind, _ := kindV.(string)
	payloadV, _ := t.Get("payload")
	switch kind {
	case kindSubscribe:
		if p, ok := payloadV.(*subscribePayload); ok {
			b.bootstrap(p)
		}
	case kindCancel:
		if p, ok := payloadV.(*CancelRequest); ok {
			delete(b.state, p.QueryHash)
		}
	case kindExpire:
		if hash, ok := payloadV.(uint64); ok {
			delete(b.state, hash)
		}
	case kindDelta:
		if d, ok := payloadV.(*deltaEvent); ok {
			b.apply(d)
		}
	}
}

func (b *aggregateBolt) bootstrap(p *subscribePayload) {
	st := &aggState{tenant: p.req.Tenant, hash: p.hash, values: map[string]float64{}}
	for _, e := range p.entries {
		if v, ok := numericField(e.Doc, b.field); ok {
			st.values[e.Key] = v
			st.sum += v
		}
	}
	b.state[p.hash] = st
	b.publish(st)
}

func (b *aggregateBolt) apply(d *deltaEvent) {
	hash, ok := ParseQueryID(d.QueryID)
	if !ok {
		return
	}
	st := b.state[hash]
	if st == nil {
		return
	}
	prev, had := st.values[d.Key]
	switch d.Type {
	case MatchAdd, MatchChange:
		v, ok := numericField(d.Doc, b.field)
		if !ok {
			if had {
				delete(st.values, d.Key)
				st.sum -= prev
				b.publish(st)
			}
			return
		}
		if had && v == prev {
			return // no aggregate change
		}
		if had {
			st.sum -= prev
		}
		st.values[d.Key] = v
		st.sum += v
		b.publish(st)
	case MatchRemove:
		if !had {
			return
		}
		delete(st.values, d.Key)
		st.sum -= prev
		b.publish(st)
	}
}

func (b *aggregateBolt) publish(st *aggState) {
	st.seq++
	count := len(st.values)
	doc := document.Document{
		"_id":   AggregateKey,
		"field": b.field,
		"count": int64(count),
		"sum":   st.sum,
	}
	if count > 0 {
		doc["avg"] = st.sum / float64(count)
		min, max := 0.0, 0.0
		first := true
		for _, v := range st.values {
			if first {
				min, max = v, v
				first = false
				continue
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		doc["min"] = min
		doc["max"] = max
	}
	b.c.publishNotification(&Notification{
		Tenant:  st.tenant,
		QueryID: QueryIDString(st.hash),
		Type:    MatchChange,
		Key:     AggregateKey,
		Doc:     doc,
		Index:   -1,
		Seq:     st.seq,
	})
}

// numericField extracts a float64 from a document field.
func numericField(d document.Document, field string) (float64, bool) {
	if d == nil {
		return 0, false
	}
	switch v := document.Get(d, field).(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	default:
		return 0, false
	}
}
