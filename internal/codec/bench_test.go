package codec

import (
	"fmt"
	"testing"

	"abdhfl/internal/rng"
)

// BenchmarkCodecThroughput measures steady-state encode+decode bandwidth for
// every registered codec at a realistic model size (the paper's MLP is
// ~25k parameters; we round up to 32k). SetBytes counts the raw float64
// payload, so the MB/s column is directly comparable across codecs, and the
// compression ratio is reported as a custom metric. Inside a whole cluster run
// the figure is the repository benchmark's codec.mb_per_s (node_round).
func BenchmarkCodecThroughput(b *testing.B) {
	const dim = 32768
	r := rng.New(1)
	v := randomVector(r, dim)
	ref := randomVector(r, dim)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			s := &Scratch{Ref: ref}
			buf := make([]byte, c.WireBytes(dim))
			dst := v.Clone()
			if _, err := c.EncodeInto(buf, v, s); err != nil { // warm up
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * dim))
			b.ReportMetric(float64(8*dim)/float64(c.WireBytes(dim)), "x-compression")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := c.EncodeInto(buf, v, s)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.DecodeInto(dst, buf[:n], s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecWireBytes prints the per-codec wire size at a few model
// dimensions — a cheap reference table, not a hot path.
func BenchmarkCodecWireBytes(b *testing.B) {
	for _, dim := range []int{1024, 32768} {
		for _, name := range Names() {
			c, _ := ByName(name)
			b.Run(fmt.Sprintf("%s/dim%d", name, dim), func(b *testing.B) {
				var n int
				for i := 0; i < b.N; i++ {
					n = c.WireBytes(dim)
				}
				b.ReportMetric(float64(n), "wire-bytes")
			})
		}
	}
}
