package main

import (
	"fmt"
	"io"
	"net"
	"slices"
	"time"
)

// The benchmark shares its host's cores with other tenants, whose load
// changes the speed of the whole machine from one minute to the next:
// in 10 s windows of one 150 s run on a 2-vCPU VM, the same paper-3color
// mix answered at 363 to 570 requests per second, and resident-joins at
// 52 to 74. No hardware counters are exposed there, so a run measures
// the host's speed beside the requests: after every request it times
// one calibration tick, and it reports each round's times as they would
// read on a host where a tick takes refTick on average.
//
// A tick is a fixed compute kernel followed by a 512-byte echo over a
// loopback TCP connection of the benchmark's own, served by a goroutine
// of its own. The echo pays what a served request pays outside the
// program's code (system calls, the loopback stack, a netpoller
// wake-up), and that is where most of the host's drift showed: over the
// 150 s run above a loopback echo took 77 to 127 µs by window, a
// compute loop 53 to 64 µs. Across six 10 s runs of each workload, scaling
// each round by its own ticks cut the spread of throughput from 9.4% to
// 4.3% (paper-3color) and from 13.5% to 2.0% (resident-joins). The tick
// shares no code with the program, so a change to the program moves the
// reported times and leaves the tick alone.
//
// refTick is about a tick's mean time, right after a request, on the
// host the README's figures come from (a 2-vCPU Intel Xeon VM).
const refTick = 200 * time.Microsecond

// echoBytes is the size of a tick's echo.
const echoBytes = 512

// calibTable and calibKeys are the compute kernel's working set: a
// table and a small array it sorts, 5 KiB together, so that a tick
// run on a warm L1 cache does not time what the program's own working
// set evicted. The kernel allocates nothing, so it leaves the Go heap
// and its collector alone.
var (
	calibTable [1 << 9]uint64
	calibKeys  [256]uint32
	calibSink  uint64
)

// calibKernel is the compute half of a tick: random reads and writes
// over calibTable, then a sort of calibKeys.
func calibKernel() {
	x := uint64(88172645463325252)
	const mask = len(calibTable) - 1
	for i := 0; i < 8000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x) & mask
		calibTable[j] += x
		x ^= calibTable[(j*7+1)&mask]
	}
	for i := range calibKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibKeys[i] = uint32(x)
	}
	slices.Sort(calibKeys[:])
	calibSink += x + uint64(calibKeys[0])
}

// hostClock runs calibration ticks over some stretch of a run. It adds
// up the ticks' timed part, and the wall and CPU time they took in all,
// so that those can be taken out of the stretch's own.
type hostClock struct {
	conn, peer net.Conn
	echoed     chan struct{}
	buf        []byte
	wall, cpu  time.Duration
	timed      time.Duration
	n          int
}

// newHostClock opens the loopback connection the echoes go over.
func newHostClock() (*hostClock, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host clock: %w", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	// Closing the listener ends an Accept that no dial reached.
	ln.Close()
	peer := <-accepted
	if err != nil || peer == nil {
		if conn != nil {
			conn.Close()
		}
		if peer != nil {
			peer.Close()
		}
		return nil, fmt.Errorf("host clock: no loopback connection: %v", err)
	}
	h := &hostClock{conn: conn, peer: peer, echoed: make(chan struct{}), buf: make([]byte, echoBytes)}
	go h.echo()
	return h, nil
}

// echo sends back every echoBytes it reads until the connection closes.
func (h *hostClock) echo() {
	defer close(h.echoed)
	b := make([]byte, echoBytes)
	for {
		if _, err := io.ReadFull(h.peer, b); err != nil {
			return
		}
		if _, err := h.peer.Write(b); err != nil {
			return
		}
	}
}

// close closes the connection and waits for the echo goroutine to end.
func (h *hostClock) close() {
	h.conn.Close()
	<-h.echoed
	h.peer.Close()
}

// tick runs one calibration tick, after an untimed run of the compute
// kernel that warms its working set.
func (h *hostClock) tick() error {
	c0, w0 := cpuTime(), time.Now()
	calibKernel()
	t0 := time.Now()
	calibKernel()
	if _, err := h.conn.Write(h.buf); err != nil {
		return fmt.Errorf("host clock: %w", err)
	}
	if _, err := io.ReadFull(h.conn, h.buf); err != nil {
		return fmt.Errorf("host clock: %w", err)
	}
	h.timed += time.Since(t0)
	h.n++
	h.wall += time.Since(w0)
	h.cpu += cpuTime() - c0
	return nil
}

// reset starts a new stretch.
func (h *hostClock) reset() { *h = hostClock{conn: h.conn, peer: h.peer, echoed: h.echoed, buf: h.buf} }

// factor scales a time measured over the stretch to the reference host:
// refTick over the mean tick. A host running at half its reference
// speed gives 0.5. The mean, not the median, so that a host stall
// slows the ticks as much as it slows the requests beside them.
func (h *hostClock) factor() float64 {
	if h.n == 0 || h.timed <= 0 {
		return 1
	}
	return float64(refTick) * float64(h.n) / float64(h.timed)
}

// scale returns d as it would read on the reference host.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
