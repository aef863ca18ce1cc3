// Binary wire codec for Envelope — the one encoding envelopes cross the
// event layer in: a leading magic byte, a kind tag, then the kind's fields
// in a fixed order, in a compact hand-rolled length/varint format. DESIGN.md
// §10 specifies the format byte for byte.
//
// Round-trip contract: decode(encode(e)) = e for every envelope built from
// canonical document values (nil/bool/int64/float64/string/[]any/
// map[string]any) — the codec never converts between value types — and
// corrupt input errors, never panics (FuzzEnvelopeWire enforces both).
package core

import (
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"
	"unicode/utf8"

	"invalidb/internal/document"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
)

// wireMagic is the first byte of every envelope. Anything else is not an
// envelope.
const wireMagic = 0xB1

// Kind tags (byte 1 of a binary envelope).
const (
	wireTagSubscribe byte = iota + 1
	wireTagCancel
	_ // 3 was the per-subscription extend; reserved like 7
	wireTagWrite
	wireTagNotification
	wireTagHeartbeat
	_ // 7 was the resync request; reserved, so no later tag shifts
	wireTagBackfillStart
	wireTagBackfillChunk
	wireTagBackfillMark
	wireTagBackfillCert
	wireTagPartitionMap
	wireTagNodeHello
	wireTagResize
	wireTagEpochAck
	wireTagLease
)

// Document value tags. Every document value is one tag byte followed by
// the tag's payload.
const (
	wireValNull   byte = 0
	wireValFalse  byte = 1
	wireValTrue   byte = 2
	wireValInt    byte = 3 // zigzag varint
	wireValFloat  byte = 4 // 8-byte little-endian IEEE 754
	wireValString byte = 5 // uvarint length + bytes
	wireValArray  byte = 6 // uvarint count + values
	wireValObject byte = 7 // uvarint count + (string key, value) pairs
)

// maxWireDepth bounds document nesting on decode so crafted input cannot
// overflow the stack.
const maxWireDepth = 200

// Decode errors are predeclared so the decoder allocates nothing while
// rejecting corrupt input.
var (
	errWireTruncated = errors.New("core: truncated binary envelope")
	errWireTrailing  = errors.New("core: trailing bytes after binary envelope")
	errWireBadTag    = errors.New("core: unknown binary value tag")
	errWireBadKind   = errors.New("core: unknown binary envelope kind")
	errWireBadFloat  = errors.New("core: non-finite float on the wire")
	errWireDepth     = errors.New("core: document nesting too deep")
	errWireBadType   = errors.New("core: invalid match type on the wire")
	errWireBadString = errors.New("core: invalid UTF-8 string on the wire")
	errWireNoPayload = errors.New("core: envelope without payload")
	errWireBadValue  = errors.New("core: unsupported document value type")
)

// wireKind is one row of the kind table: everything the codec knows about
// an envelope kind. append encodes the kind's payload (errWireNoPayload when
// the envelope does not carry it); decode parses one into e.
type wireKind struct {
	name   string
	append func(b []byte, e *Envelope) ([]byte, error)
	decode func(b []byte, e *Envelope) error
}

// wireKinds is the set of envelope kinds, indexed by kind tag; a reserved tag
// is a gap (the zero row). Adding a kind is adding a row, its two functions,
// the Envelope field and a fuzz seed; TestEveryWireKindHasSeedAndRoundTrips
// fails on a row without a sample or a seed. Row functions carry their own
// //invalidb:hotpath mark — the lint suite's static call graph does not
// follow the table.
var wireKinds = [...]wireKind{
	wireTagSubscribe:     {KindSubscribe, appendSubscribe, decodeSubscribe},
	wireTagCancel:        {KindCancel, appendCancel, decodeCancel},
	wireTagWrite:         {KindWrite, appendWrite, decodeWrite},
	wireTagNotification:  {KindNotification, appendNotification, decodeNotification},
	wireTagHeartbeat:     {KindHeartbeat, appendHeartbeat, decodeHeartbeat},
	wireTagBackfillStart: {KindBackfillStart, appendBackfillStart, decodeBackfillStart},
	wireTagBackfillChunk: {KindBackfillChunk, appendBackfillChunk, decodeBackfillChunk},
	wireTagBackfillMark:  {KindBackfillMark, appendBackfillMark, decodeBackfillMark},
	wireTagBackfillCert:  {KindBackfillCert, appendBackfillCert, decodeBackfillCert},
	wireTagPartitionMap:  {KindPartitionMap, appendMap, decodeMap},
	wireTagNodeHello:     {KindNodeHello, appendNodeHello, decodeNodeHello},
	wireTagResize:        {KindResize, appendResize, decodeResize},
	wireTagEpochAck:      {KindEpochAck, appendEpochAck, decodeEpochAck},
	wireTagLease:         {KindLease, appendLease, decodeLease},
}

// wireStats counts messages and bytes crossing the codec, per envelope
// kind and direction, indexed by kind tag. The counters are plain atomics
// so the hot path never touches the registry; RegisterWireMetrics exposes
// them as a dynamic gauge family.
var wireStats struct {
	encMsgs  [len(wireKinds)]atomic.Uint64
	encBytes [len(wireKinds)]atomic.Uint64
	decMsgs  [len(wireKinds)]atomic.Uint64
	decBytes [len(wireKinds)]atomic.Uint64
}

// RegisterWireMetrics exposes the codec's per-kind traffic counters
// (wire.encode.<kind>.messages/.bytes, wire.decode.<kind>.bytes/...) on a
// registry. The counters are process-global — traffic from every
// component sharing the process is aggregated — and families with zero
// traffic are not emitted.
func RegisterWireMetrics(r *metrics.Registry) {
	r.Collect(func(emit func(name string, v float64)) {
		for tag := 1; tag < len(wireKinds); tag++ {
			name := wireKinds[tag].name
			if n := wireStats.encMsgs[tag].Load(); n > 0 {
				emit("wire.encode."+name+".messages", float64(n))
				emit("wire.encode."+name+".bytes", float64(wireStats.encBytes[tag].Load()))
			}
			if n := wireStats.decMsgs[tag].Load(); n > 0 {
				emit("wire.decode."+name+".messages", float64(n))
				emit("wire.decode."+name+".bytes", float64(wireStats.decBytes[tag].Load()))
			}
		}
	})
}

// countWire records one message of size n for a stats direction.
//
//invalidb:hotpath
func countWire(msgs, bytes *[len(wireKinds)]atomic.Uint64, tag byte, n int) {
	msgs[tag].Add(1)
	bytes[tag].Add(uint64(n))
}

// wireKindTag maps an envelope kind string to its tag (0 if unknown; the
// empty kind is unknown, not the reserved row's empty name).
//
//invalidb:hotpath
func wireKindTag(kind string) byte {
	for tag := 1; tag < len(wireKinds) && kind != ""; tag++ {
		if wireKinds[tag].name == kind {
			return byte(tag)
		}
	}
	return 0
}

// AppendEnvelope appends the encoding of e to buf and returns the extended
// slice. Steady-state encodes into a buffer with sufficient capacity perform
// zero allocations (pinned by TestEnvelopeWireEncodeNoAllocs).
//
//invalidb:hotpath
func AppendEnvelope(buf []byte, e *Envelope) ([]byte, error) {
	tag := wireKindTag(e.Kind)
	if tag == 0 {
		return nil, errWireBadKind
	}
	b, err := wireKinds[tag].append(append(buf, wireMagic, tag), e)
	if err != nil {
		return nil, err
	}
	countWire(&wireStats.encMsgs, &wireStats.encBytes, tag, len(b)-len(buf))
	return b, nil
}

// DecodeWire parses an envelope, applying each kind's validation: the one
// door untrusted bus payloads enter by. Row decoders own their reader (a
// reader handed through the table would escape to the heap) and close it
// with end, so trailing bytes are an error for every kind.
//
//invalidb:hotpath
func DecodeWire(data []byte) (*Envelope, error) {
	if len(data) == 0 || data[0] != wireMagic {
		return nil, errWireBadKind
	}
	if len(data) < 2 {
		return nil, errWireTruncated
	}
	tag := data[1]
	if int(tag) >= len(wireKinds) || wireKinds[tag].decode == nil { // 0 and reserved tags are no row
		return nil, errWireBadKind
	}
	e := Envelope{Kind: wireKinds[tag].name}
	if err := wireKinds[tag].decode(data[2:], &e); err != nil {
		return nil, err
	}
	countWire(&wireStats.decMsgs, &wireStats.decBytes, tag, len(data))
	return &e, nil
}

//invalidb:hotpath
func appendSubscribe(b []byte, e *Envelope) ([]byte, error) {
	s := e.Subscribe
	if s == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, s.Tenant)
	b = appendString(b, s.SubscriptionID)
	b = appendSvarint(b, s.TTLMillis)
	b = appendSvarint(b, int64(s.Slack))
	b, err := appendSpec(b, &s.Query)
	if err != nil {
		return nil, err
	}
	if b, err = appendEntries(b, s.Result); err != nil {
		return nil, err
	}
	return appendUvarint(b, s.Epoch), nil
}

// appendEntries encodes a result list with a presence count (0 = nil,
// n+1 = n entries): an empty bootstrap result and none are different things.
//
//invalidb:hotpath
func appendEntries(b []byte, entries []ResultEntry) ([]byte, error) {
	if entries == nil {
		return appendUvarint(b, 0), nil
	}
	b = appendUvarint(b, uint64(len(entries))+1)
	var err error
	for i := range entries {
		b = appendString(b, entries[i].Key)
		b = appendUvarint(b, entries[i].Version)
		if b, err = appendDoc(b, entries[i].Doc); err != nil {
			return nil, err
		}
	}
	return b, nil
}

//invalidb:hotpath
func appendSpec(b []byte, q *query.Spec) ([]byte, error) {
	b = appendString(b, q.Collection)
	b, err := appendDoc(b, q.Filter)
	if err != nil {
		return nil, err
	}
	b = appendUvarint(b, uint64(len(q.Sort)))
	for i := range q.Sort {
		b = appendString(b, q.Sort[i].Path)
		b = appendBool(b, q.Sort[i].Desc)
	}
	b = appendSvarint(b, int64(q.Limit))
	b = appendSvarint(b, int64(q.Offset))
	b = appendUvarint(b, uint64(len(q.Projection)))
	for _, p := range q.Projection {
		b = appendString(b, p)
	}
	return b, nil
}

//invalidb:hotpath
func appendCancel(b []byte, e *Envelope) ([]byte, error) {
	c := e.Cancel
	if c == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, c.Tenant)
	b = appendString(b, c.SubscriptionID)
	b = appendFixed64(b, c.QueryHash)
	return appendUvarint(b, c.Epoch), nil
}

// appendLease and decodeLease are control-plane rows — a few frames
// per application server and extend interval — and carry no hotpath mark.
func appendLease(b []byte, e *Envelope) ([]byte, error) {
	l := e.Lease
	if l == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, l.Tenant)
	b = appendSvarint(b, l.TTLMillis)
	b = appendUvarint(b, uint64(len(l.Subs)))
	for i := range l.Subs {
		b = appendString(b, l.Subs[i].SubscriptionID)
		b = appendFixed64(b, l.Subs[i].QueryHash)
	}
	return b, nil
}

// appendWrite encodes a write event; WriteEvent.IngestNs is process-local
// and never crosses the wire.
//
//invalidb:hotpath
func appendWrite(b []byte, e *Envelope) ([]byte, error) {
	w := e.Write
	if w == nil || w.Image == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, w.Tenant)
	b = appendSvarint(b, w.SentNs)
	img := w.Image
	b = appendString(b, img.Collection)
	b = appendString(b, img.Key)
	b = appendUvarint(b, img.Version)
	b = append(b, byte(img.Op))
	return appendDoc(b, img.Doc)
}

//invalidb:hotpath
func appendNotification(b []byte, e *Envelope) ([]byte, error) {
	n := e.Notification
	if n == nil {
		return nil, errWireNoPayload
	}
	if n.Type < MatchAdd || n.Type > MatchError {
		return nil, errWireBadType
	}
	b = appendString(b, n.Tenant)
	b = appendString(b, n.QueryID)
	b = append(b, byte(n.Type))
	b = appendString(b, n.Key)
	b, err := appendDoc(b, n.Doc)
	if err != nil {
		return nil, err
	}
	b = appendUvarint(b, n.Version)
	b = appendSvarint(b, int64(n.Index))
	b = appendUvarint(b, n.Seq)
	b = appendString(b, n.Origin)
	b = appendString(b, n.Error)
	b = appendSvarint(b, n.WriteNs)
	b = appendSvarint(b, n.IngestNs)
	b = appendSvarint(b, n.MatchNs)
	return b, nil
}

//invalidb:hotpath
func appendHeartbeat(b []byte, e *Envelope) ([]byte, error) {
	if e.Heartbeat == nil {
		return nil, errWireNoPayload
	}
	h := e.Heartbeat
	b = appendString(b, h.Tenant)
	b = appendSvarint(b, h.TimeMillis)
	b = appendString(b, h.Node)
	b = appendUvarint(b, h.Boot)
	return appendUvarint(b, h.Restarts), nil
}

//invalidb:hotpath
func appendBackfillStart(b []byte, e *Envelope) ([]byte, error) {
	s := e.BackfillStart
	if s == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, s.Tenant)
	b = appendString(b, s.SubscriptionID)
	b = appendString(b, s.BackfillID)
	b = appendSvarint(b, s.TTLMillis)
	b = appendSvarint(b, int64(s.Slack))
	b, err := appendSpec(b, &s.Query)
	if err != nil {
		return nil, err
	}
	return appendUvarint(b, s.Epoch), nil
}

//invalidb:hotpath
func appendBackfillChunk(b []byte, e *Envelope) ([]byte, error) {
	c := e.BackfillChunk
	if c == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, c.Tenant)
	b = appendString(b, c.SubscriptionID)
	b = appendString(b, c.BackfillID)
	b = appendFixed64(b, c.QueryHash)
	b = appendSvarint(b, int64(c.Chunk))
	b = appendUvarint(b, c.Low)
	b = appendUvarint(b, c.High)
	b = appendBool(b, c.Last)
	b, err := appendEntries(b, c.Entries)
	if err != nil {
		return nil, err
	}
	return appendUvarint(b, c.Epoch), nil
}

//invalidb:hotpath
func appendMap(b []byte, e *Envelope) ([]byte, error) {
	if e.Map == nil {
		return nil, errWireNoPayload
	}
	return appendPartitionMap(b, e.Map)
}

// appendPartitionMap refuses a map the decoder would reject, so a bad map
// fails at its publisher instead of at every receiver.
//
//invalidb:hotpath
func appendPartitionMap(b []byte, m *PartitionMap) ([]byte, error) {
	//invalidb:allow hotpathalloc map validation errors allocate only on the reject path
	if err := m.validate(); err != nil {
		return nil, errWireBadValue
	}
	b = appendUvarint(b, m.Epoch)
	b = appendSvarint(b, int64(m.QueryPartitions))
	b = appendSvarint(b, int64(m.WritePartitions))
	b = appendUvarint(b, uint64(len(m.Rows)))
	for i := range m.Rows {
		b = appendString(b, m.Rows[i].Node)
		b = appendSvarint(b, int64(m.Rows[i].Slot))
	}
	return b, nil
}

//invalidb:hotpath
func appendNodeHello(b []byte, e *Envelope) ([]byte, error) {
	h := e.Hello
	if h == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, h.Node)
	b = appendSvarint(b, int64(h.Slots))
	b = appendSvarint(b, int64(h.MaxWritePartitions))
	// One presence byte, then the map.
	if h.Map == nil {
		return append(b, 0), nil
	}
	return appendPartitionMap(append(b, 1), h.Map)
}

// wireEnum maps a two-valued string enum (resize axis, backfill phase,
// certificate status) to its wire byte; anything else is unencodable.
//
//invalidb:hotpath
func wireEnum(v, zero, one string) (byte, error) {
	switch v {
	case zero:
		return 0, nil
	case one:
		return 1, nil
	}
	return 0, errWireBadValue
}

//invalidb:hotpath
func appendResize(b []byte, e *Envelope) ([]byte, error) {
	if e.Resize == nil {
		return nil, errWireNoPayload
	}
	axis, err := wireEnum(e.Resize.Axis, ResizeAxisQP, ResizeAxisWP)
	if err != nil {
		return nil, err
	}
	return append(b, axis), nil
}

//invalidb:hotpath
func appendEpochAck(b []byte, e *Envelope) ([]byte, error) {
	if e.EpochAck == nil {
		return nil, errWireNoPayload
	}
	b = appendString(b, e.EpochAck.Node)
	return appendUvarint(b, e.EpochAck.Epoch), nil
}

//invalidb:hotpath
func appendBackfillMark(b []byte, e *Envelope) ([]byte, error) {
	m := e.BackfillMark
	if m == nil {
		return nil, errWireNoPayload
	}
	phase, err := wireEnum(m.Phase, BackfillPhaseLow, BackfillPhaseHigh)
	if err != nil {
		return nil, err
	}
	b = appendString(b, m.Tenant)
	b = appendString(b, m.BackfillID)
	b = appendSvarint(b, int64(m.Chunk))
	b = append(b, phase)
	return appendUvarint(b, m.Seq), nil
}

//invalidb:hotpath
func appendBackfillCert(b []byte, e *Envelope) ([]byte, error) {
	c := e.BackfillCert
	if c == nil {
		return nil, errWireNoPayload
	}
	status, err := wireEnum(c.Status, BackfillStatusOK, BackfillStatusRestart)
	if err != nil {
		return nil, err
	}
	b = appendString(b, c.Tenant)
	b = appendString(b, c.SubscriptionID)
	b = appendString(b, c.BackfillID)
	b = appendString(b, c.QueryID)
	b = appendSvarint(b, int64(c.Chunk))
	b = appendSvarint(b, int64(c.Cell))
	b = appendSvarint(b, int64(c.Cells))
	b = appendBool(b, c.Last)
	b = appendString(b, c.Origin)
	return append(b, status), nil
}

//invalidb:hotpath
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

//invalidb:hotpath
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

//invalidb:hotpath
func appendSvarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

//invalidb:hotpath
func appendFixed64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

//invalidb:hotpath
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendDoc encodes a document field: nil is null, anything else — the
// empty document included — is an object.
//
//invalidb:hotpath
func appendDoc(b []byte, d map[string]any) ([]byte, error) {
	if d == nil {
		return append(b, wireValNull), nil
	}
	return appendObject(b, d)
}

//invalidb:hotpath
func appendObject(b []byte, m map[string]any) ([]byte, error) {
	b = append(b, wireValObject)
	b = appendUvarint(b, uint64(len(m)))
	var err error
	for k, v := range m {
		b = appendString(b, k)
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendValue encodes one document value. The canonical types map one to
// one onto value tags — int64 is tag 3, every finite float64 is tag 4, the
// codec never converts between them — so the cell evaluates the document
// storage holds. Other Go integer and float widths (documents built from
// literals) encode as the canonical type they normalise to.
//
//invalidb:hotpath
func appendValue(b []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(b, wireValNull), nil
	case bool:
		if t {
			return append(b, wireValTrue), nil
		}
		return append(b, wireValFalse), nil
	case int64:
		return appendSvarint(append(b, wireValInt), t), nil
	case float64:
		return appendFloat(b, t)
	case string:
		return appendString(append(b, wireValString), t), nil
	case []any:
		b = append(b, wireValArray)
		b = appendUvarint(b, uint64(len(t)))
		var err error
		for _, e := range t {
			if b, err = appendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	case map[string]any:
		return appendObject(b, t)
	case document.Document:
		return appendObject(b, t)
	case int:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case int32:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case int16:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case int8:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case uint:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case uint64:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case uint32:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case uint16:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case uint8:
		return appendSvarint(append(b, wireValInt), int64(t)), nil
	case float32:
		return appendFloat(b, float64(t))
	}
	return nil, errWireBadValue
}

// appendFloat rejects non-finite floats: no document door admits them, so
// one on the wire is corruption.
//
//invalidb:hotpath
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, errWireBadFloat
	}
	return binary.LittleEndian.AppendUint64(append(b, wireValFloat), math.Float64bits(f)), nil
}

// wireReader is a cursor over an envelope body.
type wireReader struct {
	b []byte
}

//invalidb:hotpath
func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errWireTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

//invalidb:hotpath
func (r *wireReader) svarint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errWireTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

//invalidb:hotpath
func (r *wireReader) fixed64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errWireTruncated
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

//invalidb:hotpath
func (r *wireReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, errWireTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

// bool decodes a strict boolean byte: anything but 0 or 1 is corrupt input,
// so a flipped bit never silently becomes "true".
//
//invalidb:hotpath
func (r *wireReader) bool() (bool, error) {
	v, err := r.byte()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, errWireBadValue
}

// str decodes a length-prefixed string. The copy is required: the result
// outlives the network read buffer the envelope was framed from. Invalid
// UTF-8 is rejected: these strings end up in the client-facing JSON of the
// gateway, which cannot carry it.
//
//invalidb:hotpath
func (r *wireReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)) {
		return "", errWireTruncated
	}
	if !utf8.Valid(r.b[:n]) {
		return "", errWireBadString
	}
	//invalidb:allow hotpathalloc decode must copy retained strings off the shared read buffer
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// value decodes one tagged document value into the canonical in-memory
// form (nil/bool/int64/float64/string/[]any/map[string]any). Counts are
// validated against the remaining input before allocating, so a crafted
// length cannot force a huge allocation, and depth is bounded.
//
//invalidb:hotpath
func (r *wireReader) value(depth int) (any, error) {
	if depth > maxWireDepth {
		return nil, errWireDepth
	}
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case wireValNull:
		return nil, nil
	case wireValFalse:
		return false, nil
	case wireValTrue:
		return true, nil
	case wireValInt:
		v, err := r.svarint()
		if err != nil {
			return nil, err
		}
		return v, nil
	case wireValFloat:
		bits, err := r.fixed64()
		if err != nil {
			return nil, err
		}
		f := math.Float64frombits(bits)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errWireBadFloat // so every decoded envelope re-encodes
		}
		return f, nil
	case wireValString:
		return r.str()
	case wireValArray:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(r.b)) { // every element is at least one tag byte
			return nil, errWireTruncated
		}
		//invalidb:allow hotpathalloc decoded arrays are retained by the envelope
		arr := make([]any, n)
		for i := range arr {
			if arr[i], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return arr, nil
	case wireValObject:
		return r.object(depth)
	}
	return nil, errWireBadTag
}

//invalidb:hotpath
func (r *wireReader) object(depth int) (map[string]any, error) {
	if depth > maxWireDepth {
		return nil, errWireDepth
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b))/2 { // every entry is at least a length byte + a tag byte
		return nil, errWireTruncated
	}
	//invalidb:allow hotpathalloc decoded objects are retained by the envelope
	m := make(map[string]any, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.value(depth + 1)
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// end closes a kind's payload, which must have been consumed exactly.
//
//invalidb:hotpath
func (r *wireReader) end(err error) error {
	if err == nil && len(r.b) != 0 {
		return errWireTrailing
	}
	return err
}

// doc decodes a document field: null is a nil document, an object — the
// empty one included — is a document; no other value is one.
//
//invalidb:hotpath
func (r *wireReader) doc() (document.Document, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case wireValNull:
		return nil, nil
	case wireValObject:
		return r.object(0)
	}
	return nil, errWireBadTag
}

// enum decodes a two-valued string enum (the inverse of wireEnum).
//
//invalidb:hotpath
func (r *wireReader) enum(zero, one string) (string, error) {
	v, err := r.bool()
	if err != nil {
		return "", err
	}
	if v {
		return one, nil
	}
	return zero, nil
}

// intv decodes an svarint into an int field.
//
//invalidb:hotpath
func (r *wireReader) intv() (int, error) {
	v, err := r.svarint()
	return int(v), err
}

//invalidb:hotpath
func decodeSubscribe(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	s := new(SubscribeRequest)
	e.Subscribe = s
	var err error
	if s.Tenant, err = r.str(); err != nil {
		return err
	}
	if s.SubscriptionID, err = r.str(); err != nil {
		return err
	}
	if s.TTLMillis, err = r.svarint(); err != nil {
		return err
	}
	if s.Slack, err = r.intv(); err != nil {
		return err
	}
	if err = r.decodeSpec(&s.Query); err != nil {
		return err
	}
	if s.Result, err = r.entries(); err != nil {
		return err
	}
	s.Epoch, err = r.uvarint()
	return r.end(err)
}

// entries decodes a result list (see appendEntries).
//
//invalidb:hotpath
func (r *wireReader) entries() ([]ResultEntry, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 { // 0 = nil list
		return nil, err
	}
	n--
	if n > uint64(len(r.b))/3 { // key len + version + doc tag per entry
		return nil, errWireTruncated
	}
	//invalidb:allow hotpathalloc decoded result entries are retained by the envelope
	entries := make([]ResultEntry, n)
	for i := range entries {
		re := &entries[i]
		if re.Key, err = r.str(); err != nil {
			return nil, err
		}
		if re.Version, err = r.uvarint(); err != nil {
			return nil, err
		}
		if re.Doc, err = r.doc(); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

//invalidb:hotpath
func (r *wireReader) decodeSpec(q *query.Spec) error {
	var err error
	if q.Collection, err = r.str(); err != nil {
		return err
	}
	f, err := r.doc()
	if err != nil {
		return err
	}
	q.Filter = f
	nsort, err := r.uvarint()
	if err != nil {
		return err
	}
	if nsort > 0 {
		if nsort > uint64(len(r.b))/2 {
			return errWireTruncated
		}
		//invalidb:allow hotpathalloc decoded sort keys are retained by the envelope
		q.Sort = make([]query.SortKey, nsort)
		for i := range q.Sort {
			if q.Sort[i].Path, err = r.str(); err != nil {
				return err
			}
			if q.Sort[i].Desc, err = r.bool(); err != nil {
				return err
			}
		}
	}
	if q.Limit, err = r.intv(); err != nil {
		return err
	}
	if q.Offset, err = r.intv(); err != nil {
		return err
	}
	nproj, err := r.uvarint()
	if err != nil {
		return err
	}
	if nproj > 0 {
		if nproj > uint64(len(r.b)) {
			return errWireTruncated
		}
		//invalidb:allow hotpathalloc decoded projections are retained by the envelope
		q.Projection = make([]string, nproj)
		for i := range q.Projection {
			if q.Projection[i], err = r.str(); err != nil {
				return err
			}
		}
	}
	return nil
}

//invalidb:hotpath
func decodeCancel(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	c := new(CancelRequest)
	e.Cancel = c
	var err error
	if c.Tenant, err = r.str(); err != nil {
		return err
	}
	if c.SubscriptionID, err = r.str(); err != nil {
		return err
	}
	if c.QueryHash, err = r.fixed64(); err != nil {
		return err
	}
	c.Epoch, err = r.uvarint()
	return r.end(err)
}

func decodeLease(b []byte, e *Envelope) error {
	r := wireReader{b}
	l := new(Lease)
	e.Lease = l
	var err error
	if l.Tenant, err = r.str(); err != nil {
		return err
	}
	if l.TTLMillis, err = r.svarint(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err == nil && n > uint64(len(r.b))/9 { // id length + fixed64 hash per entry
		err = errWireTruncated
	}
	for i := uint64(0); err == nil && i < n; i++ {
		var le LeaseEntry
		if le.SubscriptionID, err = r.str(); err == nil {
			le.QueryHash, err = r.fixed64()
		}
		l.Subs = append(l.Subs, le)
	}
	return r.end(err)
}

//invalidb:hotpath
func decodeWrite(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	w := new(WriteEvent)
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	img := new(document.AfterImage)
	w.Image = img
	e.Write = w
	var err error
	if w.Tenant, err = r.str(); err != nil {
		return err
	}
	if w.SentNs, err = r.svarint(); err != nil {
		return err
	}
	if img.Collection, err = r.str(); err != nil {
		return err
	}
	if img.Key, err = r.str(); err != nil {
		return err
	}
	if img.Version, err = r.uvarint(); err != nil {
		return err
	}
	op, err := r.byte()
	if err != nil {
		return err
	}
	img.Op = document.Op(op)
	if img.Doc, err = r.doc(); err != nil {
		return err
	}
	//invalidb:allow hotpathalloc after-image validation errors allocate only on the reject path
	return r.end(img.Validate())
}

//invalidb:hotpath
func decodeNotification(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	n := new(Notification)
	e.Notification = n
	var err error
	if n.Tenant, err = r.str(); err != nil {
		return err
	}
	if n.QueryID, err = r.str(); err != nil {
		return err
	}
	t, err := r.byte()
	if err != nil {
		return err
	}
	n.Type = MatchType(t)
	if n.Type < MatchAdd || n.Type > MatchError {
		return errWireBadType
	}
	if n.Key, err = r.str(); err != nil {
		return err
	}
	if n.Doc, err = r.doc(); err != nil {
		return err
	}
	if n.Version, err = r.uvarint(); err != nil {
		return err
	}
	if n.Index, err = r.intv(); err != nil {
		return err
	}
	if n.Seq, err = r.uvarint(); err != nil {
		return err
	}
	if n.Origin, err = r.str(); err != nil {
		return err
	}
	if n.Error, err = r.str(); err != nil {
		return err
	}
	if n.WriteNs, err = r.svarint(); err != nil {
		return err
	}
	if n.IngestNs, err = r.svarint(); err != nil {
		return err
	}
	n.MatchNs, err = r.svarint()
	return r.end(err)
}

//invalidb:hotpath
func decodeHeartbeat(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	h := new(Heartbeat)
	e.Heartbeat = h
	var err error
	if h.Tenant, err = r.str(); err != nil {
		return err
	}
	if h.TimeMillis, err = r.svarint(); err != nil {
		return err
	}
	if h.Node, err = r.str(); err != nil {
		return err
	}
	if h.Boot, err = r.uvarint(); err != nil {
		return err
	}
	h.Restarts, err = r.uvarint()
	return r.end(err)
}

//invalidb:hotpath
func decodeBackfillStart(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	s := new(BackfillStart)
	e.BackfillStart = s
	var err error
	if s.Tenant, err = r.str(); err != nil {
		return err
	}
	if s.SubscriptionID, err = r.str(); err != nil {
		return err
	}
	if s.BackfillID, err = r.str(); err != nil {
		return err
	}
	if s.TTLMillis, err = r.svarint(); err != nil {
		return err
	}
	if s.Slack, err = r.intv(); err != nil {
		return err
	}
	if err = r.decodeSpec(&s.Query); err != nil {
		return err
	}
	s.Epoch, err = r.uvarint()
	return r.end(err)
}

//invalidb:hotpath
func decodeBackfillChunk(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	c := new(BackfillChunk)
	e.BackfillChunk = c
	var err error
	if c.Tenant, err = r.str(); err != nil {
		return err
	}
	if c.SubscriptionID, err = r.str(); err != nil {
		return err
	}
	if c.BackfillID, err = r.str(); err != nil {
		return err
	}
	if c.QueryHash, err = r.fixed64(); err != nil {
		return err
	}
	if c.Chunk, err = r.intv(); err != nil {
		return err
	}
	if c.Low, err = r.uvarint(); err != nil {
		return err
	}
	if c.High, err = r.uvarint(); err != nil {
		return err
	}
	if c.Last, err = r.bool(); err != nil {
		return err
	}
	if c.Entries, err = r.entries(); err != nil {
		return err
	}
	c.Epoch, err = r.uvarint()
	return r.end(err)
}

//invalidb:hotpath
func decodeMap(b []byte, e *Envelope) (err error) {
	r := wireReader{b}
	e.Map, err = r.decodePartitionMap()
	return r.end(err)
}

//invalidb:hotpath
func (r *wireReader) decodePartitionMap() (*PartitionMap, error) {
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	m := new(PartitionMap)
	var err error
	if m.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	if m.QueryPartitions, err = r.intv(); err != nil {
		return nil, err
	}
	if m.WritePartitions, err = r.intv(); err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) { // every row is at least two bytes
		return nil, errWireTruncated
	}
	if n > 0 {
		//invalidb:allow hotpathalloc decoded row assignments are retained by the envelope
		m.Rows = make([]RowAssignment, n)
		for i := range m.Rows {
			if m.Rows[i].Node, err = r.str(); err != nil {
				return nil, err
			}
			if m.Rows[i].Slot, err = r.intv(); err != nil {
				return nil, err
			}
		}
	}
	//invalidb:allow hotpathalloc map validation errors allocate only on the reject path
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeNodeHello rejects what no cluster process sends: an unnamed node
// (an unnamed process is not coordinated and publishes no hello — and "" is
// the coordinator's "no node has a free slot" answer) or negative capacity.
//
//invalidb:hotpath
func decodeNodeHello(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	h := new(NodeHello)
	e.Hello = h
	var err error
	if h.Node, err = r.str(); err != nil {
		return err
	}
	if h.Slots, err = r.intv(); err != nil {
		return err
	}
	if h.MaxWritePartitions, err = r.intv(); err != nil {
		return err
	}
	if h.Node == "" || h.Slots < 0 || h.MaxWritePartitions < 0 {
		return errWireBadValue
	}
	present, err := r.bool()
	if err == nil && present {
		h.Map, err = r.decodePartitionMap()
	}
	return r.end(err)
}

//invalidb:hotpath
func decodeResize(b []byte, e *Envelope) (err error) {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	e.Resize = new(ResizeRequest)
	e.Resize.Axis, err = r.enum(ResizeAxisQP, ResizeAxisWP)
	return r.end(err)
}

//invalidb:hotpath
func decodeEpochAck(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	a := new(EpochAck)
	e.EpochAck = a
	var err error
	if a.Node, err = r.str(); err != nil {
		return err
	}
	if a.Node == "" { // see decodeNodeHello
		return errWireBadValue
	}
	a.Epoch, err = r.uvarint()
	return r.end(err)
}

//invalidb:hotpath
func decodeBackfillMark(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	m := new(BackfillMark)
	e.BackfillMark = m
	var err error
	if m.Tenant, err = r.str(); err != nil {
		return err
	}
	if m.BackfillID, err = r.str(); err != nil {
		return err
	}
	if m.Chunk, err = r.intv(); err != nil {
		return err
	}
	if m.Phase, err = r.enum(BackfillPhaseLow, BackfillPhaseHigh); err != nil {
		return err
	}
	m.Seq, err = r.uvarint()
	return r.end(err)
}

//invalidb:hotpath
func decodeBackfillCert(b []byte, e *Envelope) error {
	r := wireReader{b}
	//invalidb:allow hotpathalloc decoded envelope payload escapes to the caller
	c := new(BackfillCert)
	e.BackfillCert = c
	var err error
	if c.Tenant, err = r.str(); err != nil {
		return err
	}
	if c.SubscriptionID, err = r.str(); err != nil {
		return err
	}
	if c.BackfillID, err = r.str(); err != nil {
		return err
	}
	if c.QueryID, err = r.str(); err != nil {
		return err
	}
	if c.Chunk, err = r.intv(); err != nil {
		return err
	}
	if c.Cell, err = r.intv(); err != nil {
		return err
	}
	if c.Cells, err = r.intv(); err != nil {
		return err
	}
	if c.Last, err = r.bool(); err != nil {
		return err
	}
	if c.Origin, err = r.str(); err != nil {
		return err
	}
	c.Status, err = r.enum(BackfillStatusOK, BackfillStatusRestart)
	return r.end(err)
}
