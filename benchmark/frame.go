package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
)

// docRef is all the harness keeps of a document it reads back: which
// document (key "d<no>") and which write produced this version (field
// "w":"~<seq>~"). Both are -1 when absent or foreign.
type docRef struct {
	no int32
	w  int32
}

// frame is one decoded gateway response. The byte slices alias the line
// buffer and die with the next read.
type frame struct {
	op, id, typ, key, msg []byte
	index                 int
	dropped               int64
	doc                   docRef
	hasDoc                bool
	docs                  []docRef // reused across frames
}

// parseFrame walks one NDJSON line without building a tree: event frames
// arrive at tens of thousands per second on the fan-out workload and the
// generator may not become the bottleneck it is measuring. It accepts any
// key order and whitespace, so a gateway that reorders fields still parses.
func parseFrame(line []byte, f *frame) error {
	f.op, f.id, f.typ, f.key, f.msg = nil, nil, nil, nil, nil
	f.index, f.dropped, f.hasDoc = 0, 0, false // the gateway omits a zero index
	f.doc = docRef{-1, -1}
	f.docs = f.docs[:0]
	s := scanner{b: line}
	if !s.open('{') {
		return fmt.Errorf("frame does not start an object: %.60q", line)
	}
	for s.more('}') {
		k, ok := s.str()
		if !ok || !s.open(':') {
			return fmt.Errorf("bad frame key at %d: %.60q", s.i, line)
		}
		switch string(k) {
		case "op":
			f.op, ok = s.str()
		case "id":
			f.id, ok = s.str()
		case "type":
			f.typ, ok = s.str()
		case "key":
			f.key, ok = s.str()
		case "message":
			f.msg, ok = s.str()
		case "index":
			var n int64
			n, ok = s.integer()
			f.index = int(n)
		case "dropped":
			f.dropped, ok = s.integer()
		case "doc":
			f.doc, ok = s.doc()
			f.hasDoc = ok
		case "docs":
			ok = s.docList(&f.docs)
		default:
			ok = s.skip()
		}
		if !ok {
			return fmt.Errorf("bad frame value for %q at %d: %.60q", k, s.i, line)
		}
	}
	if s.trunc {
		return fmt.Errorf("frame ends early: %.60q", line)
	}
	return nil
}

type scanner struct {
	b     []byte
	i     int
	trunc bool // input ended inside an object or array
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// open consumes c (after whitespace).
func (s *scanner) open(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// more reports whether another member precedes the closing byte,
// consuming separators and the closer itself.
func (s *scanner) more(closer byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == ',' {
		s.i++
		s.space()
	}
	if s.i >= len(s.b) {
		s.trunc = true
		return false
	}
	if s.b[s.i] == closer {
		s.i++
		return false
	}
	return true
}

// str returns the raw bytes of a string value. Escapes are skipped
// correctly but not decoded: every string the harness reads back is one it
// generated, and those carry none.
func (s *scanner) str() ([]byte, bool) {
	s.space()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		j := bytes.IndexByte(s.b[s.i:], '"')
		if j < 0 {
			return nil, false
		}
		end := s.i + j
		// An odd run of backslashes before the quote escapes it.
		bs := 0
		for k := end - 1; k >= start && s.b[k] == '\\'; k-- {
			bs++
		}
		s.i = end + 1
		if bs%2 == 0 {
			return s.b[start:end], true
		}
	}
	return nil, false
}

func (s *scanner) integer() (int64, bool) {
	s.space()
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	start := s.i
	var n int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// skip passes over any JSON value.
func (s *scanner) skip() bool {
	s.space()
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		_, ok := s.str()
		return ok
	case '{', '[':
		depth := 0
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case '"':
				if _, ok := s.str(); !ok {
					return false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					s.i++
					return true
				}
			}
			s.i++
		}
		return false
	default:
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case ',', '}', ']', ' ', '\n':
				return true
			}
			s.i++
		}
		return true
	}
}

// doc reads an object value, keeping only "_id" and "w". A null document
// (removes) yields {-1,-1}.
func (s *scanner) doc() (docRef, bool) {
	ref := docRef{-1, -1}
	s.space()
	if s.i < len(s.b) && s.b[s.i] == 'n' {
		return ref, s.skip()
	}
	if !s.open('{') {
		return ref, false
	}
	for s.more('}') {
		k, ok := s.str()
		if !ok || !s.open(':') {
			return ref, false
		}
		switch string(k) {
		case "_id":
			v, ok := s.str()
			if !ok {
				return ref, false
			}
			ref.no = docNo(v)
		case "w":
			v, ok := s.str()
			if !ok {
				return ref, false
			}
			ref.w = tokenSeq(v)
		default:
			if !s.skip() {
				return ref, false
			}
		}
	}
	return ref, !s.trunc
}

func (s *scanner) docList(out *[]docRef) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == 'n' {
		return s.skip()
	}
	if !s.open('[') {
		return false
	}
	for s.more(']') {
		ref, ok := s.doc()
		if !ok {
			return false
		}
		*out = append(*out, ref)
	}
	return !s.trunc
}

// docNo parses a document key "d<no>"; anything else is foreign (-1).
func docNo(key []byte) int32 {
	if len(key) < 2 || key[0] != 'd' {
		return -1
	}
	return digits(key[1:])
}

// tokenSeq parses a write token "~<seq>~".
func tokenSeq(v []byte) int32 {
	if len(v) < 3 || v[0] != '~' || v[len(v)-1] != '~' {
		return -1
	}
	return digits(v[1 : len(v)-1])
}

func digits(b []byte) int32 {
	if len(b) == 0 || len(b) > 9 {
		return -1
	}
	var n int32
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int32(c-'0')
	}
	return n
}

// lineReader yields newline-terminated frames from a socket. Initial
// results run to hundreds of KiB, so the buffer grows instead of failing
// like bufio.Reader.ReadSlice does.
type lineReader struct {
	nc   net.Conn
	buf  []byte
	r, w int
}

func newLineReader(nc net.Conn) *lineReader {
	return &lineReader{nc: nc, buf: make([]byte, 64<<10)}
}

// next returns the next line without its newline. The slice is valid until
// the following call.
func (lr *lineReader) next() ([]byte, error) {
	scanned := lr.r
	for {
		if j := bytes.IndexByte(lr.buf[scanned:lr.w], '\n'); j >= 0 {
			line := lr.buf[lr.r : scanned+j]
			lr.r = scanned + j + 1
			return line, nil
		}
		scanned = lr.w
		if lr.r > 0 && lr.w == len(lr.buf) {
			n := copy(lr.buf, lr.buf[lr.r:lr.w])
			scanned -= lr.r
			lr.r, lr.w = 0, n
		}
		if lr.w == len(lr.buf) {
			grown := make([]byte, 2*len(lr.buf))
			copy(grown, lr.buf[:lr.w])
			lr.buf = grown
		}
		n, err := lr.nc.Read(lr.buf[lr.w:])
		lr.w += n
		if n == 0 && err != nil {
			if err == io.EOF && lr.w > lr.r {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}
