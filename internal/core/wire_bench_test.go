package core

import "testing"

// BenchmarkEnvelopeWire times the codec on the two hot envelope kinds
// (writes into the cluster, notifications out of it). The encode reuses its
// buffer — the same pattern the TCP write path uses — and must run
// allocation-free; wire-bytes reports the encoded size. CI runs this with
// -benchtime=1x so the suite cannot bit-rot; EXPERIMENTS.md records
// representative numbers.
func BenchmarkEnvelopeWire(b *testing.B) {
	for _, env := range wireTestEnvelopes() {
		if env.Kind != KindWrite && env.Kind != KindNotification {
			continue
		}
		env := env
		if env.Kind == KindNotification && env.Notification.Type == MatchError {
			continue // bench the data-carrying notification only
		}
		bin, err := env.Encode()
		if err != nil {
			b.Fatal(err)
		}

		b.Run(env.Kind+"/encode/binary", func(b *testing.B) {
			buf := make([]byte, 0, len(bin))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = AppendEnvelope(buf[:0], env)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "wire-bytes")
		})
		b.Run(env.Kind+"/decode/binary", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeWire(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
