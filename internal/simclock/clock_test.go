package simclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockStartsAtEpoch(t *testing.T) {
	c := NewVirtual()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), Epoch)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtual()
	c.Advance(3 * time.Second)
	if got, want := c.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAfterFuncFiresInOrder(t *testing.T) {
	c := NewVirtual()
	var order []int
	c.AfterFunc(2*time.Second, func(time.Time) { order = append(order, 2) })
	c.AfterFunc(1*time.Second, func(time.Time) { order = append(order, 1) })
	c.AfterFunc(3*time.Second, func(time.Time) { order = append(order, 3) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired order = %v, want [1 2 3]", order)
	}
}

func TestAfterFuncSeesFireTime(t *testing.T) {
	c := NewVirtual()
	var at time.Time
	c.AfterFunc(90*time.Millisecond, func(now time.Time) { at = now })
	c.Advance(time.Second)
	if want := Epoch.Add(90 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("timer fired at %v, want %v", at, want)
	}
}

func TestAfterFuncNotFiredBeforeDeadline(t *testing.T) {
	c := NewVirtual()
	fired := false
	c.AfterFunc(10*time.Second, func(time.Time) { fired = true })
	c.Advance(9 * time.Second)
	if fired {
		t.Fatal("timer fired before deadline")
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
}

func TestCancelTimer(t *testing.T) {
	c := NewVirtual()
	fired := false
	cancel := c.AfterFunc(time.Second, func(time.Time) { fired = true })
	cancel()
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	c := NewVirtual()
	cancel := c.AfterFunc(time.Second, func(time.Time) {})
	cancel()
	cancel() // must not panic or remove another timer
	c.AfterFunc(time.Second, func(time.Time) {})
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
}

func TestNestedTimersFireWithinWindow(t *testing.T) {
	c := NewVirtual()
	var seq []string
	c.AfterFunc(time.Second, func(time.Time) {
		seq = append(seq, "outer")
		c.AfterFunc(time.Second, func(time.Time) { seq = append(seq, "inner") })
	})
	c.Advance(5 * time.Second)
	if len(seq) != 2 || seq[0] != "outer" || seq[1] != "inner" {
		t.Fatalf("seq = %v, want [outer inner]", seq)
	}
	if got, want := c.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("clock ended at %v, want %v", got, want)
	}
}

func TestNestedTimerBeyondWindowDoesNotFire(t *testing.T) {
	c := NewVirtual()
	innerFired := false
	c.AfterFunc(time.Second, func(time.Time) {
		c.AfterFunc(time.Hour, func(time.Time) { innerFired = true })
	})
	c.Advance(2 * time.Second)
	if innerFired {
		t.Fatal("timer beyond the advance window fired")
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
}

func TestAdvanceTo(t *testing.T) {
	c := NewVirtual()
	target := Epoch.Add(time.Minute)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("Now() = %v, want %v", c.Now(), target)
	}
	// Moving to the past is a no-op.
	c.AdvanceTo(Epoch)
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo(past) moved the clock to %v", c.Now())
	}
}

func TestRunDrainsQueue(t *testing.T) {
	c := NewVirtual()
	count := 0
	for i := 1; i <= 5; i++ {
		c.AfterFunc(time.Duration(i)*time.Second, func(time.Time) { count++ })
	}
	fired := c.Run(Epoch.Add(time.Minute))
	if count != 5 {
		t.Fatalf("fired %d callbacks, want 5", count)
	}
	if fired != 5 {
		t.Fatalf("Run reported %d, want 5", fired)
	}
	if got, want := c.Now(), Epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("clock ended at %v, want %v", got, want)
	}
}

func TestConcurrentAfterFunc(t *testing.T) {
	c := NewVirtual()
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AfterFunc(time.Second, func(time.Time) {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	c.Advance(2 * time.Second)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
}

func TestSameDeadlineFiresInScheduleOrder(t *testing.T) {
	c := NewVirtual()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Second, func(time.Time) { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending schedule order", order)
		}
	}
}

func TestRealClockProgresses(t *testing.T) {
	var c RealClock
	a := c.Now()
	time.Sleep(time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("real clock did not progress across Sleep")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(7).Fork("devices")
	b := NewRNG(7).Fork("devices")
	c := NewRNG(7).Fork("sensors")
	same, diff := true, true
	for i := 0; i < 32; i++ {
		av := a.Float64()
		if av != b.Float64() {
			same = false
		}
		if av != c.Float64() {
			diff = false
		}
	}
	if !same {
		t.Fatal("Fork with equal label not reproducible")
	}
	if diff {
		t.Fatal("Fork with different labels produced identical stream")
	}
}

func TestIntBetweenBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(lo, hi int16) bool {
		l, h := int(lo), int(hi)
		if h < l {
			l, h = h, l
		}
		v := r.IntBetween(l, h)
		return v >= l && v <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter(100, 0.1) = %v out of [90,110]", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(3)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if mean < 4.9 || mean > 5.1 {
		t.Fatalf("mean = %v, want ~5", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(4)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if hits < 2800 || hits > 3200 {
		t.Fatalf("Bernoulli(0.3) hit %d/10000, want ~3000", hits)
	}
}
