package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// generatedHashes pins the SHA-256 of WriteXADL(Generate()) — every
// element, parameter, constraint and the initial deployment — for the
// sizes the experiments and the benchmark generate. A change to how the
// model stores parameters must leave every generated system
// byte-identical; a change meant to alter generation re-records these.
var generatedHashes = map[string]string{
	"10x100/seed1":    "24f56e399df185022aae35bf1a889526d539c1c46edd9086d726e3877cb5be17",
	"10x100/seed42":   "6f4f3f8e0bc04ad99aac417c32f8fa8c8789765358c3386fd2dd5d14ac11b717",
	"10x100/seed5000": "b012bfe5c4c9208599d4dfd6c6a188c42a5102c3553c3a8b8e2e36d9ffc8cff2",
	"20x400/seed1":    "2db860ff35618da41961978e13d3f5855ca8b2623b06cb5023922200f8148266",
	"20x400/seed42":   "5f10a5f72969e8cdd00e8ad92018eda439541d93d3fd7b021bc2a6ed512e81e1",
	"20x400/seed5000": "2aacd5cd494b412e8f03add737da4a8b48a1d8762281a8164b9594b5bc112348",
}

func TestGeneratorOutputPinned(t *testing.T) {
	for _, size := range [][2]int{{10, 100}, {20, 400}} {
		for _, seed := range []int64{1, 42, 5000} {
			name := fmt.Sprintf("%dx%d/seed%d", size[0], size[1], seed)
			s, d, err := NewGenerator(DefaultGeneratorConfig(size[0], size[1]), seed).Generate()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := WriteXADL(&buf, s, d); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if want, ok := generatedHashes[name]; !ok {
				t.Errorf("missing entry:\n\t%q: %q,", name, got)
			} else if got != want {
				t.Errorf("%s: WriteXADL hash %s, want %s", name, got, want)
			}
		}
	}
}

// BenchmarkGenerate times generating the benchmark's larger systems: one
// parameter set per element, written once per drawn value.
func BenchmarkGenerate(b *testing.B) {
	for _, size := range [][2]int{{20, 400}, {40, 800}} {
		b.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := NewGenerator(DefaultGeneratorConfig(size[0], size[1]), int64(i)).Generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
