package core

import (
	"reflect"
	"testing"
)

// FuzzEnvelopeWire checks the codec's contract on arbitrary input: corrupt
// or truncated bytes error without panicking, and whatever does decode
// re-encodes, and decodes again to the identical envelope — value types,
// nil versus empty documents and result lists included.
func FuzzEnvelopeWire(f *testing.F) {
	for _, env := range append(wireTestEnvelopes(), wireCornerEnvelopes()...) {
		data, err := env.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{wireMagic, wireTagWrite, 0, 0})
	f.Add([]byte{wireMagic, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeWire(data)
		if err != nil {
			return // rejected without panicking — that's the contract
		}
		again, err := env.Encode()
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v\n%#v", err, env)
		}
		rt, err := DecodeWire(again)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v\n%#v", err, env)
		}
		if !reflect.DeepEqual(rt, env) {
			t.Fatalf("round trip changed the envelope:\nfirst:  %#v\nsecond: %#v", env, rt)
		}
	})
}
