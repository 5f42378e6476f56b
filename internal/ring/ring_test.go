package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-5, 2}, {0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1024, 1024}, {1025, 2048},
	} {
		if got := New[int](tc.in).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFIFOSingleProducer(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 8; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push succeeded on full ring")
	}
	if d := r.Depth(); d != 8 {
		t.Fatalf("Depth = %d, want 8", d)
	}
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop succeeded on empty ring")
	}
	if d := r.Depth(); d != 0 {
		t.Fatalf("Depth = %d, want 0", d)
	}
}

// TestWrapAround cycles the ring through many laps so the sequence
// arithmetic is exercised far past the first pass over the slots.
func TestWrapAround(t *testing.T) {
	r := New[int](4)
	next := 0
	for lap := 0; lap < 1000; lap++ {
		for i := 0; i < 3; i++ {
			if !r.TryPush(lap*3 + i) {
				t.Fatalf("lap %d: push failed", lap)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != next {
				t.Fatalf("lap %d: Pop = %d,%v, want %d,true", lap, v, ok, next)
			}
			next++
		}
	}
}

// TestDrainBurst checks the burst drain moves at most len(buf) entries
// and leaves the rest queued.
func TestDrainBurst(t *testing.T) {
	r := New[int](16)
	for i := 0; i < 10; i++ {
		r.TryPush(i)
	}
	buf := make([]int, 4)
	if n := r.Drain(buf); n != 4 {
		t.Fatalf("Drain = %d, want 4", n)
	}
	for i, v := range buf {
		if v != i {
			t.Fatalf("buf[%d] = %d, want %d", i, v, i)
		}
	}
	if d := r.Depth(); d != 6 {
		t.Fatalf("Depth after partial drain = %d, want 6", d)
	}
	if n := r.Drain(make([]int, 16)); n != 6 {
		t.Fatalf("second Drain = %d, want 6", n)
	}
}

// TestConcurrentProducersConsumer is the -race stress test: several
// producers push disjoint value ranges while the single consumer
// drains in bursts. A push the full ring refuses is counted as a drop
// and retried after a yield, until the producer's whole range has been
// accepted — so the test exercises the overflow path without assuming
// anything about when the scheduler runs the consumer (once producers
// own OS threads, a yield every so often does not get it a CPU before
// a producer has burned through its range against a full ring). Every
// value must come out exactly once, in per-producer FIFO order.
func TestConcurrentProducersConsumer(t *testing.T) {
	const (
		producers = 4
		perProd   = 6000
	)
	r := New[int](256)
	abort := make(chan struct{}) // releases retrying producers if the consumer fails
	defer close(abort)
	drops := make([]int64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !r.TryPush(p*perProd + i) {
					drops[p]++
					select {
					case <-abort:
						return
					default:
					}
					runtime.Gosched()
				}
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Consumer: drain in bursts until all producers are done and the
	// ring is empty. Track per-producer order and counts.
	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	got := make([]int, producers)
	buf := make([]int, 64)
	producing := true
	for producing || r.Depth() > 0 {
		select {
		case <-done:
			producing = false
		default:
		}
		n := r.Drain(buf)
		for _, v := range buf[:n] {
			p, seq := v/perProd, v%perProd
			if seq <= lastSeen[p] {
				t.Fatalf("producer %d: value %d arrived after %d (order violated or duplicate)", p, seq, lastSeen[p])
			}
			lastSeen[p] = seq
			got[p]++
		}
	}
	var dropped int64
	for p := 0; p < producers; p++ {
		if got[p] != perProd {
			t.Errorf("producer %d: consumed %d of %d accepted values", p, got[p], perProd)
		}
		dropped += drops[p]
	}
	t.Logf("%d pushes refused by the full ring and retried", dropped)
}

// TestOverflowBackpressure fills the ring with no consumer running and
// checks that exactly Cap pushes succeed, the rest fail cleanly, and
// the queue drains intact afterwards — the drop-with-counter contract
// the gateway relies on.
func TestOverflowBackpressure(t *testing.T) {
	r := New[int](32)
	pushed, dropped := 0, 0
	for i := 0; i < 100; i++ {
		if r.TryPush(i) {
			pushed++
		} else {
			dropped++
		}
	}
	if pushed != 32 || dropped != 68 {
		t.Fatalf("pushed %d dropped %d, want 32/68", pushed, dropped)
	}
	for i := 0; i < 32; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d,true (oldest entries must survive overflow)", v, ok, i)
		}
	}
	// After a full drain the ring must accept a full capacity again.
	for i := 0; i < 32; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed after drain", i)
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := New[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TryPush(i)
		r.Pop()
	}
}

func BenchmarkDrainBurst64(b *testing.B) {
	r := New[int](1024)
	buf := make([]int, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			r.TryPush(j)
		}
		r.Drain(buf)
	}
}

func TestTryPushWakeSemantics(t *testing.T) {
	r := New[int](4)

	// First entry into an empty ring lands on the consumer's cursor:
	// the consumer may be parked, so the producer must signal.
	if pushed, wake := r.TryPushWake(1); !pushed || !wake {
		t.Fatalf("first push: pushed=%v wake=%v, want true/true", pushed, wake)
	}
	// Entries behind a queued one never need a signal: whoever
	// published the entry at the cursor owes the wake.
	if pushed, wake := r.TryPushWake(2); !pushed || wake {
		t.Fatalf("second push: pushed=%v wake=%v, want true/false", pushed, wake)
	}

	buf := make([]int, 8)
	if n := r.Drain(buf); n != 2 {
		t.Fatalf("Drain = %d, want 2", n)
	}
	// The cursor caught up: the next push is wake-worthy again.
	if pushed, wake := r.TryPushWake(3); !pushed || !wake {
		t.Fatalf("post-drain push: pushed=%v wake=%v, want true/true", pushed, wake)
	}

	for i := 0; i < 3; i++ {
		r.TryPushWake(10 + i)
	}
	if pushed, _ := r.TryPushWake(99); pushed {
		t.Fatal("push into full ring succeeded")
	}
}

// TestTryPushWakeNoMissedWakeups drives the production wake protocol
// under race: producers publish with TryPushWake and only signal the
// buffered wake channel when the push reports the consumer may be
// parked; the consumer parks on the channel whenever a drain comes up
// empty. If the protocol could lose a wakeup, the consumer would park
// forever with entries queued and the watchdog below fires.
func TestTryPushWakeNoMissedWakeups(t *testing.T) {
	const producers = 2
	const perProd = 50000
	r := New[int](64)
	wakeCh := make(chan struct{}, 1)

	for p := 0; p < producers; p++ {
		go func() {
			for i := 0; i < perProd; i++ {
				for {
					pushed, wake := r.TryPushWake(i)
					if wake {
						select {
						case wakeCh <- struct{}{}:
						default:
						}
					}
					if pushed {
						break
					}
					runtime.Gosched()
				}
			}
		}()
	}

	buf := make([]int, 32)
	consumed := 0
	watchdog := time.After(30 * time.Second)
	for consumed < producers*perProd {
		n := r.Drain(buf)
		if n == 0 {
			select {
			case <-wakeCh:
			case <-watchdog:
				t.Fatalf("consumer parked with entries pending after %d/%d: missed wakeup", consumed, producers*perProd)
			}
			continue
		}
		consumed += n
	}
}
