package nfs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
)

// fastIO replaces the sleep seam for tests that check accounting, not
// timing.
func fastIO(t *testing.T) *[]time.Duration {
	t.Helper()
	var slept []time.Duration
	old := sleepFor
	sleepFor = func(d time.Duration) { slept = append(slept, d) }
	t.Cleanup(func() { sleepFor = old })
	return &slept
}

func newFS() *Server {
	return NewServer(netsim.NewNetwork(netsim.LinkSpec{BandwidthBps: 100_000_000, Latency: time.Millisecond}))
}

func TestReadContentDeterministic(t *testing.T) {
	fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 1, Size: 200_000, Seed: 5})
	b1 := make([]byte, 1000)
	b2 := make([]byte, 1000)
	if _, err := fs.Read(1, "a", 12345, b1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(1, "a", 12345, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("content not deterministic")
	}
}

func TestNeedlePlantedAtOffset(t *testing.T) {
	fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 1, Size: 100_000, Seed: 5, Needle: "FINDME", NeedleOff: 50_000})
	buf := make([]byte, 20)
	if _, err := fs.Read(1, "a", 49_995, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte("FINDME")) {
		t.Errorf("needle missing: %q", buf)
	}
}

func TestNeedleSpansReadBoundary(t *testing.T) {
	fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 1, Size: 300_000, Seed: 5, Needle: "SPANSPAN", NeedleOff: ChunkSize - 4})
	// Read across the chunk boundary in one call.
	buf := make([]byte, 16)
	if _, err := fs.Read(1, "a", int64(ChunkSize-8), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte("SPANSPAN")) {
		t.Errorf("spanning needle missing: %q", buf)
	}
}

func TestEOFSemantics(t *testing.T) {
	fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 1, Size: 100, Seed: 1})
	buf := make([]byte, 64)
	n, err := fs.Read(1, "a", 80, buf)
	if err != nil || n != 20 {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	n, err = fs.Read(1, "a", 100, buf)
	if err != nil || n != 0 {
		t.Fatalf("EOF read: n=%d err=%v", n, err)
	}
}

func TestLocalVsRemoteAccounting(t *testing.T) {
	fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 2, Size: ChunkSize * 3, Seed: 1})
	buf := make([]byte, ChunkSize)
	// Remote reader (node 1).
	if _, err := fs.Read(1, "a", 0, buf); err != nil {
		t.Fatal(err)
	}
	if fs.RemoteReads != 1 || fs.LocalReads != 0 {
		t.Errorf("remote=%d local=%d after remote read", fs.RemoteReads, fs.LocalReads)
	}
	// Local reader (node 2), different chunk.
	if _, err := fs.Read(2, "a", ChunkSize, buf); err != nil {
		t.Fatal(err)
	}
	if fs.LocalReads != 1 {
		t.Errorf("local=%d", fs.LocalReads)
	}
}

func TestBufferCacheHitsAndClear(t *testing.T) {
	fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 2, Size: ChunkSize, Seed: 1})
	buf := make([]byte, 100)
	fs.Read(1, "a", 0, buf)  //nolint:errcheck
	fs.Read(1, "a", 50, buf) //nolint:errcheck // same chunk → cache
	if fs.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", fs.CacheHits)
	}
	if fs.RemoteReads != 1 {
		t.Errorf("remote reads = %d, want 1", fs.RemoteReads)
	}
	// Per-node caches: node 3 reading the same chunk pays again.
	fs.Read(3, "a", 0, buf) //nolint:errcheck
	if fs.RemoteReads != 2 {
		t.Errorf("remote reads = %d, want 2 (cache is per node)", fs.RemoteReads)
	}
	fs.ClearCaches()
	fs.Read(1, "a", 0, buf) //nolint:errcheck
	if fs.RemoteReads != 3 {
		t.Errorf("remote reads = %d, want 3 after cache clear", fs.RemoteReads)
	}
}

func TestRemoteReadPaysLinkTime(t *testing.T) {
	slept := fastIO(t)
	fs := newFS()
	fs.Host(File{Name: "a", Host: 2, Size: ChunkSize, Seed: 1})
	buf := make([]byte, ChunkSize)
	if _, err := fs.Read(1, "a", 0, buf); err != nil {
		t.Fatal(err)
	}
	// 64 KiB at 100 Mbps ≈ 5.2 ms (+1ms latency), charged through the
	// debt accumulator (above the quantum, so it sleeps immediately).
	var total time.Duration
	for _, d := range *slept {
		total += d
	}
	if total < 5*time.Millisecond || total > 10*time.Millisecond {
		t.Errorf("remote chunk cost %v, want ~6ms", total)
	}
}

func TestUnknownFile(t *testing.T) {
	fastIO(t)
	fs := newFS()
	if _, err := fs.Read(1, "nope", 0, make([]byte, 8)); err == nil {
		t.Fatal("expected error for unknown file")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	f := File{Name: "x/y.dat", Host: 7, Size: 1 << 30, Seed: 99, Needle: "n", NeedleOff: 12}
	got, err := DecodeMeta(EncodeMeta(f))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Errorf("round trip: %+v != %+v", got, f)
	}
}
