package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loopStats is what one measured loop observed. Operations that fail
// count as attempted and late; latencies are kept for successes only.
type loopStats struct {
	wall      time.Duration // loop start → last completion
	attempted int
	ok        int
	onTime    int     // succeeded within the latency limit
	lat       samples // latency of each success
	// at is when each success counts, from the loop's start, in the
	// order of lat: its completion in a closed loop, its due time in an
	// open loop.
	at samples
	// class is each success's traffic class, in the order of lat: the
	// model it went to in an open loop; a closed loop leaves it empty.
	class []int
	// lag is how late the generator sent each operation: past its due
	// time in an open loop, past the previous completion in a closed
	// loop.
	lag samples
	// rate and p50 are the reported throughput and median latency; see
	// summarizeClosed and summarizeOpen.
	rate float64
	p50  time.Duration
}

func (st *loopStats) record(at, lat time.Duration, ok bool, limit time.Duration) {
	st.attempted++
	if !ok {
		return
	}
	st.ok++
	st.lat = append(st.lat, lat)
	st.at = append(st.at, at)
	if lat <= limit {
		st.onTime++
	}
}

func (st *loopStats) merge(o loopStats) {
	st.attempted += o.attempted
	st.ok += o.ok
	st.onTime += o.onTime
	st.lat = append(st.lat, o.lat...)
	st.at = append(st.at, o.at...)
	st.class = append(st.class, o.class...)
	st.lag = append(st.lag, o.lag...)
}

// The shared 2-vCPU host this benchmark was sized on switches between a
// fast state and one about 30% slower, for seconds to minutes at a time,
// as neighbours load it. A neighbour only ever slows the loop, so the
// closed loop reports its throughput and median latency over its
// fastest tenth of fastWindow-long windows: what the code does when the
// host lets it. Success and on-time shares, and the per-layer tail,
// still count every request.
const (
	fastWindow = 500 * time.Millisecond
	fastShare  = 0.1
)

// fastWindows cuts the loop into whole fastWindows by each success's
// at, ranks them with score (lower is faster), and returns the
// latencies of the successes in the fastest fastShare of windows and
// those windows' scores. It reports false for a loop of fewer than ten
// windows.
func (st *loopStats) fastWindows(score func(n int, lat samples) float64) (samples, []float64, bool) {
	n := int(st.wall / fastWindow)
	if n < 10 {
		return nil, nil, false
	}
	lats := make([]samples, n)
	for i, t := range st.at {
		if w := int(t / fastWindow); w < n {
			lats[w] = append(lats[w], st.lat[i])
		}
	}
	scores := make([]float64, n)
	for w := range lats {
		scores[w] = score(len(lats[w]), lats[w])
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[int(math.Ceil(fastShare*float64(n)))-1]
	var fast samples
	var picked []float64
	for w, sc := range scores {
		if sc <= cut {
			fast = append(fast, lats[w]...)
			picked = append(picked, sc)
		}
	}
	return fast, picked, true
}

// summarizeClosed sets a closed loop's rate, the completion count of its
// fastest windows, and the median latency within them.
func (st *loopStats) summarizeClosed() {
	st.rate, st.p50 = share(float64(st.ok), st.wall.Seconds()), 0
	if d, ok := st.lat.quantile(50); ok {
		st.p50 = d
	}
	fast, counts, ok := st.fastWindows(func(n int, _ samples) float64 { return -float64(n) })
	if !ok {
		return
	}
	st.rate = -median(counts) / fastWindow.Seconds()
	st.p50, _ = fast.quantile(50)
}

// summarizeOpen sets an open loop's rate, fixed by its schedule, and
// its median latency: the mean over the traffic classes of each class's
// median over the whole loop. Classes differ in cost, so the median of
// the mixture falls in a gap between them and jumps with the mix of a
// few requests; and an open loop's median over its fastest windows is
// the luckiest of many small samples. Both spread 20-30% across runs
// where the per-class medians of the whole loop stayed within a few
// percent.
func (st *loopStats) summarizeOpen() {
	st.rate = share(float64(st.ok), st.wall.Seconds())
	st.p50 = 0
	byClass := map[int]samples{}
	for i, d := range st.lat {
		c := 0
		if i < len(st.class) {
			c = st.class[i]
		}
		byClass[c] = append(byClass[c], d)
	}
	if len(byClass) == 0 {
		return
	}
	var sum time.Duration
	for _, lat := range byClass {
		d, _ := lat.quantile(50)
		sum += d
	}
	st.p50 = sum / time.Duration(len(byClass))
}

// closedLoop keeps clients operations outstanding for dur: each client
// sends its next operation as soon as its previous one completes, and
// stops sending once dur has passed. op runs the i-th operation of the
// workload's stream (i counts across clients) and reports whether its
// output checked out. Latency is timed from the send.
func closedLoop(clients int, dur, limit time.Duration, op func(i int) bool) loopStats {
	var next atomic.Int64
	per := make([]loopStats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			prevEnd := start
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				st.lag = append(st.lag, sent.Sub(prevEnd))
				ok := op(i)
				prevEnd = time.Now()
				st.record(prevEnd.Sub(start), prevEnd.Sub(sent), ok, limit)
			}
		}(&per[c])
	}
	wg.Wait()
	var st loopStats
	st.wall = time.Since(start)
	for _, p := range per {
		st.merge(p)
	}
	st.summarizeClosed()
	return st
}

// openLoop sends operation i at its due offset due[i] from the loop's
// start, for every offset below dur, whether or not earlier operations
// have completed. send runs on the generator goroutine and must call
// done exactly once, from any goroutine, when operation i is answered;
// a send that blocks delays every later send, which shows as lag.
// Latency is timed from the due time, so a stall is charged to every
// operation that was due during it. class(i) is operation i's traffic
// class for the median (see summarizeOpen); nil puts all in one.
func openLoop(due []time.Duration, dur, limit time.Duration, class func(i int) int, send func(i int, done func(ok bool))) loopStats {
	var (
		mu  sync.Mutex
		st  loopStats
		lag samples
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i, d := range due {
		if d >= dur {
			break
		}
		at := start.Add(d)
		sleepUntil(at)
		lag = append(lag, time.Since(at))
		wg.Add(1)
		send(i, func(ok bool) {
			lat := time.Since(at)
			mu.Lock()
			st.record(d, lat, ok, limit)
			if ok && class != nil {
				st.class = append(st.class, class(i))
			}
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.lag = lag
	st.summarizeOpen()
	return st
}

// spinSlack is how early the generator's timer sleep ends: on Linux a
// Go timer fires up to a millisecond late, which an open loop at
// hundreds of requests per second would charge to every request.
const spinSlack = time.Millisecond

// sleepUntil waits for at: a timer sleep for all but the last
// spinSlack, then a spin that yields to every runnable goroutine, so
// the wait never holds the processor from the server.
func sleepUntil(at time.Time) {
	if w := time.Until(at) - spinSlack; w > 0 {
		time.Sleep(w)
	}
	for time.Now().Before(at) {
		runtime.Gosched()
	}
}
