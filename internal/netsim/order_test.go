package netsim

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneWayFramesInOrder pins the Transport's delivery order on both
// fabrics: one-way frames of one kind from one peer are handled one at a
// time in send order, while a blocked handler of one kind holds up
// neither frames of another kind nor a Call's round trip.
func TestOneWayFramesInOrder(t *testing.T) {
	fabrics := []struct {
		name string
		// pair returns a sender and the receiver it reaches as node 2.
		pair func(t *testing.T) (Transport, Transport)
	}{
		{"sim", func(*testing.T) (Transport, Transport) {
			n := NewNetwork(Unlimited)
			return n.Node(1), n.Node(2)
		}},
		{"tcp", func(t *testing.T) (Transport, Transport) {
			a, b := tcpPair(t)
			return a, b
		}},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, from, to Transport)
	}{
		{"one kind in send order", sendOrderKept},
		{"other kind passes a blocked one", otherKindPassesBlocked},
		{"call answered past a blocked one", callPassesBlocked},
	}
	for _, fab := range fabrics {
		for _, tc := range cases {
			t.Run(fab.name+"/"+tc.name, func(t *testing.T) {
				from, to := fab.pair(t)
				tc.run(t, from, to)
			})
		}
	}
}

// sendOrderKept sends 2000 numbered frames from one goroutine to a
// handler that sleeps a random few µs, and checks they are handled one
// at a time, in order.
func sendOrderKept(t *testing.T, from, to Transport) {
	const frames = 2000
	var (
		mu      sync.Mutex
		got     []uint32
		running atomic.Int32
		overlap atomic.Bool
		done    = make(chan struct{})
	)
	to.Handle(KindJobEvent, func(_ int, p []byte) ([]byte, error) {
		if running.Add(1) > 1 {
			overlap.Store(true)
		}
		time.Sleep(time.Duration(rand.Intn(5)) * time.Microsecond)
		running.Add(-1)
		mu.Lock()
		got = append(got, binary.LittleEndian.Uint32(p))
		if len(got) == frames {
			close(done)
		}
		mu.Unlock()
		return nil, nil
	})
	for i := uint32(0); i < frames; i++ {
		if err := from.Send(2, KindJobEvent, binary.LittleEndian.AppendUint32(nil, i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d frames handled", len(got), frames)
	}
	if overlap.Load() {
		t.Error("two frames of one kind from one peer were handled at once")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("frame %d handled in position %d", v, i)
		}
	}
}

// blockControl makes to's KindControl handler block until the test ends
// and returns once a frame is parked in it.
func blockControl(t *testing.T, from, to Transport) {
	entered, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) })
	to.Handle(KindControl, func(int, []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return nil, nil
	})
	if err := from.Send(2, KindControl, []byte("block")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocking frame was never handled")
	}
}

func otherKindPassesBlocked(t *testing.T, from, to Transport) {
	got := make(chan struct{}, 1)
	to.Handle(KindJobEvent, func(int, []byte) ([]byte, error) {
		got <- struct{}{}
		return nil, nil
	})
	blockControl(t, from, to)
	if err := from.Send(2, KindJobEvent, []byte("pass")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("a frame of another kind waited behind the blocked handler")
	}
}

func callPassesBlocked(t *testing.T, from, to Transport) {
	to.Handle(KindMigrate, func(_ int, p []byte) ([]byte, error) { return p, nil })
	blockControl(t, from, to)
	reply := make(chan error, 1)
	go func() {
		_, err := from.Call(2, KindMigrate, []byte("echo"))
		reply <- err
	}()
	select {
	case err := <-reply:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Call got no reply while a one-way handler was blocked")
	}
}
