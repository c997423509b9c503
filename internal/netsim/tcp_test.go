package netsim

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// tcpPair builds two connected transports on loopback and returns them
// with a cleanup.
func tcpPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	t1, err := NewTCPTransport(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTCPTransport(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t1.Close(); t2.Close() }) //nolint:errcheck
	if _, err := t1.Connect(t2.Addr()); err != nil {
		t.Fatal(err)
	}
	return t1, t2
}

// TestTCPLargePayloadRoundTrip is the regression test for multi-MB
// migration frames: an 8 MB request with a 16 MB reply must survive the
// framing intact in both directions (the mutex-only two-Write framing
// could interleave under concurrency; the length prefix must describe
// exactly the bytes that follow).
func TestTCPLargePayloadRoundTrip(t *testing.T) {
	t1, t2 := tcpPair(t)

	req := bytes.Repeat([]byte{0xAB}, 8<<20)
	rep := bytes.Repeat([]byte{0xCD}, 16<<20)
	t2.Handle(KindMigrate, func(from int, payload []byte) ([]byte, error) {
		if !bytes.Equal(payload, req) {
			t.Errorf("request corrupted: got %d bytes", len(payload))
		}
		return rep, nil
	})

	got, err := t1.Call(2, KindMigrate, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rep) {
		t.Fatalf("reply corrupted: got %d bytes, want %d", len(got), len(rep))
	}
}

// TestTCPConcurrentLargeFrames hammers one connection with concurrent
// multi-MB calls from both goroutines: any partial-write interleaving
// between a header and its payload desynchronizes the stream and fails
// every subsequent call.
func TestTCPConcurrentLargeFrames(t *testing.T) {
	t1, t2 := tcpPair(t)

	echo := func(from int, payload []byte) ([]byte, error) { return payload, nil }
	t2.Handle(KindMigrate, echo)

	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(fill byte) {
			payload := bytes.Repeat([]byte{fill}, 2<<20)
			for trip := 0; trip < 4; trip++ {
				got, err := t1.Call(2, KindMigrate, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- errors.New("echo corrupted")
					return
				}
			}
			errs <- nil
		}(byte(i + 1))
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPOversizeFrameRejected: a frame above MaxFrameBytes must fail the
// Call with a wrapped ErrFrameTooLarge — not ErrUnreachable, and not a
// hung connection — and the connection must remain usable afterwards.
func TestTCPOversizeFrameRejected(t *testing.T) {
	t1, t2 := tcpPair(t)
	t2.Handle(KindMigrate, func(from int, payload []byte) ([]byte, error) {
		return []byte("ok"), nil
	})

	done := make(chan error, 1)
	go func() {
		_, err := t1.Call(2, KindMigrate, make([]byte, MaxFrameBytes+1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversize call: got %v, want ErrFrameTooLarge", err)
		}
		if errors.Is(err, ErrUnreachable) {
			t.Fatalf("oversize call classified as unreachable: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversize call hung instead of failing")
	}

	// The refusal happens before any bytes hit the wire, so the same
	// connection still works.
	got, err := t1.Call(2, KindMigrate, []byte("ping"))
	if err != nil {
		t.Fatalf("connection unusable after oversize rejection: %v", err)
	}
	if string(got) != "ok" {
		t.Fatalf("got %q", got)
	}

	// Send takes the same guard.
	if err := t1.Send(2, KindMigrate, make([]byte, MaxFrameBytes+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize send: got %v, want ErrFrameTooLarge", err)
	}
}

// TestTCPOversizeLengthPrefixDropsConn: a corrupt length prefix on the
// wire (beyond MaxFrameBytes) must drop the connection — failing pending
// calls fast — instead of allocating for it or desynchronizing.
func TestTCPOversizeLengthPrefixDropsConn(t *testing.T) {
	t1, t2 := tcpPair(t)
	t2.Handle(KindMigrate, func(from int, payload []byte) ([]byte, error) {
		return nil, nil
	})

	t1.mu.Lock()
	c := t1.peers[2]
	t1.mu.Unlock()
	if c == nil {
		t.Fatal("no connection to peer 2")
	}
	// Forge a header announcing an absurd payload, bypassing writeFrame's
	// own guard — this is the on-the-wire corruption case.
	hdr := make([]byte, 14)
	hdr[0] = byte(KindMigrate)
	hdr[10] = 0xFF
	hdr[11] = 0xFF
	hdr[12] = 0xFF
	hdr[13] = 0xFF // length prefix = ~4 GiB
	c.mu.Lock()
	_, werr := c.conn.Write(hdr)
	c.mu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}

	// The receiver must tear the connection down promptly; the next call
	// from t1 then fails with unreachable instead of hanging forever.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := t1.Call(2, KindMigrate, []byte("probe"))
		if err != nil {
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("got %v, want ErrUnreachable after corrupt frame", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived a corrupt oversize length prefix")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPCallContextCancel: a call whose context ends while the peer
// sits on the request returns the context's error promptly, forgets the
// pending entry, and leaves the connection usable — the late reply is
// dropped, not delivered to a later call.
func TestTCPCallContextCancel(t *testing.T) {
	t1, t2 := tcpPair(t)
	release := make(chan struct{})
	t2.Handle(KindMigrate, func(from int, payload []byte) ([]byte, error) {
		if string(payload) == "slow" {
			<-release
		}
		return payload, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := t1.CallContext(ctx, 2, KindMigrate, []byte("slow")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call: err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled call took %v", d)
	}
	t1.mu.Lock()
	pending := len(t1.waiting)
	t1.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d calls still pending after the context ended", pending)
	}
	close(release)
	got, err := t1.Call(2, KindMigrate, []byte("next"))
	if err != nil || string(got) != "next" {
		t.Fatalf("call after a cancelled one: %q, %v", got, err)
	}
	if _, err := t1.CallContext(ctx, 2, KindMigrate, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call with an ended context: err = %v, want DeadlineExceeded", err)
	}
}

// TestTCPManySmallFramesInOrder: small frames sent back to back share
// the receiver's read buffer; every one must arrive intact, whatever
// the mix of sizes around the buffer's edge.
func TestTCPManySmallFramesInOrder(t *testing.T) {
	t1, t2 := tcpPair(t)
	t2.Handle(KindMigrate, func(from int, payload []byte) ([]byte, error) { return payload, nil })
	for i := 0; i < 200; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, (i*97)%9000)
		got, err := t1.Call(2, KindMigrate, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame %d corrupted: %d bytes back, sent %d", i, len(got), len(payload))
		}
	}
}
