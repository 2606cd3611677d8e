package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"testing"
)

// signBatchMatches signs messages as batches split at split and fails
// unless every signature is crypto/ed25519.Sign's.
func signBatchMatches(t *testing.T, priv ed25519.PrivateKey, messages [][]byte, split int) {
	t.Helper()
	split = min(split, len(messages))
	sigs := append(SignBatch(priv, messages[:split]), SignBatch(priv, messages[split:])...)
	for i, m := range messages {
		if want := ed25519.Sign(priv, m); !bytes.Equal(sigs[i], want) {
			t.Fatalf("key %x, message %d of %d (split %d) %x: signature %x, want %x", priv.Seed(), i, len(messages), split, m, sigs[i], want)
		}
	}
}

// Random keys, messages of 0 to 300 bytes and batch sizes 0 to 65, split
// anywhere: every signature is crypto/ed25519.Sign's bytes.
func TestSignBatchMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for key := 0; key < 40; key++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		if key == 0 {
			clear(seed)
		}
		var messages [][]byte
		for range rng.Intn(66) {
			m := make([]byte, rng.Intn(301))
			rng.Read(m)
			messages = append(messages, m)
		}
		signBatchMatches(t, ed25519.NewKeyFromSeed(seed), messages, rng.Intn(len(messages)+1))
	}
}

// FuzzSignBatchMatchesStdlib signs the fuzzed messages under the fuzzed
// seed's key, split into two batches at split: every signature must be
// crypto/ed25519.Sign's bytes.
func FuzzSignBatchMatchesStdlib(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint8(0))
	f.Add([]byte("seed"), []byte("a message"), uint16(9), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{7}, 900), uint16(300), uint8(2))
	f.Fuzz(func(t *testing.T, seed, data []byte, size uint16, split uint8) {
		seed = append(seed, make([]byte, ed25519.SeedSize)...)[:ed25519.SeedSize]
		n := int(size)%301 + 1
		var messages [][]byte
		for len(data) > 0 && len(messages) < 70 {
			m := data[:min(len(data), n*(len(messages)%3)/2)] // 0-, n/2- and n-byte messages
			messages = append(messages, m)
			data = data[len(m):]
		}
		signBatchMatches(t, ed25519.NewKeyFromSeed(seed), messages, int(split))
	})
}

// BenchmarkSign is one signature by crypto/ed25519 and in a batch of 64.
func BenchmarkSign(b *testing.B) {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	messages := make([][]byte, 64)
	for i := range messages {
		messages[i] = bytes.Repeat([]byte{byte(i)}, 120)
	}
	b.Run("stdlib", func(b *testing.B) {
		for i := range b.N {
			ed25519.Sign(priv, messages[i%64])
		}
	})
	b.Run("batch64", func(b *testing.B) {
		wideTable()
		b.ResetTimer()
		for i := 0; i < b.N; i += 64 {
			SignBatch(priv, messages)
		}
	})
}
