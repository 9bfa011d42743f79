package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lambdanic/internal/workloads"
)

// Request kinds.
const (
	kindWeb uint8 = iota
	kindKVGet
	kindKVSet
	kindImage
	numKinds
)

var kindNames = [numKinds]string{"web", "kvget", "kvset", "image"}

// request is one pre-generated input and the reply it must produce.
type request struct {
	kind    uint8
	id      uint32
	payload []byte
	want    []byte
}

const (
	kvKeys      = 1000 // workloads' key space
	webPages    = 3
	webPageSize = 64
	imageSide   = 128 // 128×128 RGBA: 65 544 B request (47 fragments), 16 384 B reply (12)
	imageCount  = 8   // distinct images per seed
	// streamLen is how many requests each caller's sequence holds
	// before it repeats.
	streamLen = 1 << 17
	zipfS     = 1.1
)

// The references below are written from the lambdas' documented
// contracts, not by calling them: a web page is a fixed text padded to
// 64 bytes, a GET returns what the SET lambda stores ("value-<k>"), a
// SET returns STORED, and grayscale is the integer luma
// (77R+150G+29B)>>8.

func webPage(p int) []byte {
	page := make([]byte, webPageSize)
	copy(page, fmt.Sprintf("<html><body>lambda-nic page %d</body></html>", p))
	return page
}

func kvPayload(op byte, key uint32) []byte {
	p := make([]byte, 5)
	p[0] = op
	binary.BigEndian.PutUint32(p[1:], key)
	return p
}

func imageRequest(rng *rand.Rand) (payload, gray []byte) {
	n := imageSide * imageSide
	payload = make([]byte, 8+4*n)
	binary.BigEndian.PutUint32(payload[0:4], imageSide)
	binary.BigEndian.PutUint32(payload[4:8], imageSide)
	px := payload[8:]
	rng.Read(px)
	gray = make([]byte, n)
	for i := range gray {
		r, g, b := uint32(px[4*i]), uint32(px[4*i+1]), uint32(px[4*i+2])
		gray[i] = byte((77*r + 150*g + 29*b) >> 8)
	}
	return payload, gray
}

// inputs is a workload's whole pre-generated input: the table of
// distinct requests and, per caller, the order to send them in. The
// program under test sees only the payload bytes.
type inputs struct {
	table   []request
	streams [][]uint32
	preload []request // one SET per key, sent during set-up
}

// makeInputs derives a workload's inputs from the seed alone.
func makeInputs(workload string, seed int64, callers int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	var webAt, getAt, setAt, imgAt int
	webAt = len(in.table)
	for p := 0; p < webPages; p++ {
		var req [2]byte
		binary.BigEndian.PutUint16(req[:], uint16(p))
		in.table = append(in.table, request{kindWeb, workloads.WebServerID, req[:], webPage(p)})
	}
	getAt = len(in.table)
	for k := uint32(0); k < kvKeys; k++ {
		in.table = append(in.table, request{kindKVGet, workloads.KVGetClientID, kvPayload(0, k), []byte(fmt.Sprintf("value-%d", k))})
	}
	setAt = len(in.table)
	for k := uint32(0); k < kvKeys; k++ {
		in.table = append(in.table, request{kindKVSet, workloads.KVSetClientID, kvPayload(1, k), []byte("STORED")})
	}
	in.preload = in.table[setAt : setAt+kvKeys]
	imgAt = len(in.table)
	for i := 0; i < imageCount; i++ {
		payload, gray := imageRequest(rng)
		in.table = append(in.table, request{kindImage, workloads.ImageTransformerID, payload, gray})
	}
	// Popularity rank -> key: a seeded permutation, so which keys are
	// hot changes with the seed.
	rank := rng.Perm(kvKeys)
	for c := 0; c < callers; c++ {
		zipf := rand.NewZipf(rng, zipfS, 1, kvKeys-1)
		stream := make([]uint32, streamLen)
		for i := range stream {
			switch workload {
			case "interactive_mix":
				switch u := rng.Float64(); {
				case u < 0.50:
					stream[i] = uint32(webAt + rng.Intn(webPages))
				case u < 0.85:
					stream[i] = uint32(getAt + rank[zipf.Uint64()])
				default:
					stream[i] = uint32(setAt + rng.Intn(kvKeys))
				}
			case "image_bulk":
				stream[i] = uint32(imgAt + rng.Intn(imageCount))
			default:
				return nil, fmt.Errorf("no data-plane workload %q", workload)
			}
		}
		in.streams = append(in.streams, stream)
	}
	return in, nil
}

// check reports whether a reply is the right one.
func (r *request) check(resp []byte, err error) bool {
	return err == nil && bytes.Equal(resp, r.want)
}

// setUp builds a cluster the way a user of NewDeployment would bring
// one up: deploy the paper's four lambdas, store every key through the
// SET lambda, and see one correct reply of each other kind. It returns
// the route-visibility time of each deploy.
func setUp(nw network, seed int64, tr *tracer, in *inputs) (*cluster, []time.Duration, error) {
	c, err := newCluster(nw, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	set := []*workloads.Workload{
		workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient(),
		workloads.ImageTransformer(imageSide, imageSide),
	}
	var deploys []time.Duration
	for _, w := range set {
		d, err := c.deploy(tr.wrap(w))
		if err != nil {
			_ = c.Close()
			return nil, nil, err
		}
		deploys = append(deploys, d)
	}
	first := append([]request(nil), in.preload...)
	seen := [numKinds]bool{kindKVSet: true}
	for _, r := range in.table {
		if !seen[r.kind] {
			seen[r.kind] = true
			first = append(first, r)
		}
	}
	for i := range first {
		r := &first[i]
		resp, err := c.invoke(context.Background(), r.id, r.payload)
		if !r.check(resp, err) {
			_ = c.Close()
			return nil, nil, fmt.Errorf("set-up: %s request failed on %s: err=%v, %d reply bytes", kindNames[r.kind], nw.kind(), err, len(resp))
		}
	}
	return c, deploys, nil
}

// loadResult is one closed-loop segment.
type loadResult struct {
	callers   int
	seconds   float64
	windows   []windowStat   // the measured part's whole windows
	whole     hist           // every successful measured request
	byKind    [numKinds]hist // the same, per request kind
	attempted int
	failed    int
	firstFail string
	mem       memDelta
}

// memDelta is the process-wide runtime.MemStats change over a segment.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

// cpuTimes returns the process's user and system CPU time so far, ns.
func cpuTimes() (user, sys int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano(), ru.Stime.Nano()
}

func cpuNs() int64 {
	user, sys := cpuTimes()
	return user + sys
}

// windowLen is a measurement window; a measured part shorter than two
// of them (smoke mode, the brief passes) is cut into two halves instead.
const windowLen = time.Second

// callerLog is what one caller records; callers share nothing while
// they measure.
type callerLog struct {
	windows   []windowAcc
	byKind    [numKinds]hist
	attempted int
	failed    int
}

// drive runs one closed-loop segment: each caller sends its next
// request only when the previous one's reply has arrived (the paper's
// Fig. 6/7 callers each wait for a reply). It warms up, then measures,
// cutting the measured part into windows by completion time.
// With a tracer there must be exactly one caller.
func drive(c *cluster, in *inputs, callers int, warm, measure time.Duration, tr *tracer) *loadResult {
	epoch := time.Now()
	measureFrom := int64(warm)
	stopAt := int64(warm + measure)
	window := windowLen
	if measure < 2*windowLen {
		window = measure / 2
	}
	nWindows := int(measure / window)
	res := &loadResult{callers: callers, seconds: measure.Seconds()}
	logs := make([]*callerLog, callers)
	for i := range logs {
		logs[i] = &callerLog{windows: make([]windowAcc, nWindows)}
	}
	var firstFail atomic.Pointer[string]
	var traceOffset int64
	if tr != nil {
		traceOffset = int64(epoch.Sub(tr.epoch))
	}

	var wg sync.WaitGroup
	for ci := 0; ci < callers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			log := logs[ci]
			stream := in.streams[ci%len(in.streams)]
			for i := 0; ; i++ {
				r := &in.table[stream[i%len(stream)]]
				var t0, t1 int64
				if tr != nil {
					t0 = tr.begin(i, r.kind) - traceOffset
				} else {
					t0 = int64(time.Since(epoch))
				}
				if t0 >= stopAt {
					if tr != nil {
						tr.abandon()
					}
					return
				}
				resp, err := c.invoke(context.Background(), r.id, r.payload)
				ok := r.check(resp, err)
				if tr != nil {
					t1 = tr.end(ok, t0 >= measureFrom) - traceOffset
				} else {
					t1 = int64(time.Since(epoch))
				}
				if !ok && firstFail.Load() == nil {
					msg := fmt.Sprintf("%s request %d of caller %d: err=%v, %d reply bytes, want %d", kindNames[r.kind], i, ci, err, len(resp), len(r.want))
					firstFail.CompareAndSwap(nil, &msg)
				}
				if t0 < measureFrom {
					continue
				}
				log.attempted++
				if !ok {
					log.failed++
				} else {
					log.byKind[r.kind].add(t1 - t0)
				}
				if w := int((t1 - measureFrom) / int64(window)); w < nWindows {
					acc := &log.windows[w]
					acc.n++
					if ok {
						acc.lat.add(t1 - t0)
					}
				}
			}
		}(ci)
	}

	// This goroutine reads the process CPU time at every window edge.
	var before, after runtime.MemStats
	cpu := make([]int64, 0, nWindows+1)
	time.Sleep(time.Until(epoch.Add(warm)))
	runtime.ReadMemStats(&before)
	cpu = append(cpu, cpuNs())
	for w := 1; w <= nWindows; w++ {
		time.Sleep(time.Until(epoch.Add(warm + time.Duration(w)*window)))
		cpu = append(cpu, cpuNs())
	}
	time.Sleep(time.Until(epoch.Add(warm + measure)))
	runtime.ReadMemStats(&after)
	wg.Wait()

	res.mem = memDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC}
	perCaller := make([][]windowAcc, callers)
	for i, log := range logs {
		perCaller[i] = log.windows
		res.attempted += log.attempted
		res.failed += log.failed
		for k := range log.byKind {
			res.byKind[k].merge(&log.byKind[k])
			res.whole.merge(&log.byKind[k])
		}
	}
	res.windows = windowStats(perCaller, cpu, window.Seconds())
	if p := firstFail.Load(); p != nil {
		res.firstFail = *p
	}
	return res
}

// p50 is the whole-segment median latency, µs.
func (r *loadResult) p50() float64 { return r.whole.quantile(0.5) / 1e3 }

// p50ByKind is the whole-segment median latency of one request kind, µs.
func (r *loadResult) p50ByKind(kind uint8) float64 { return r.byKind[kind].quantile(0.5) / 1e3 }
