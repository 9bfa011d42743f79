// Package faults is λ-NIC's fault-injection subsystem: a deterministic,
// seeded injector that drives failure scenarios through both of the
// repository's layers. On the functional layer it wraps transport links
// (any net.PacketConn — the in-memory network or real UDP) with
// per-link rules — packet loss, delay, duplication, reordering, and
// one-way partitions — and takes endpoints down. On the timing
// layer it schedules hardware fault events (NIC crash, island
// degradation, firmware-swap downtime, §7) into the discrete-event
// simulation (sim.go).
//
// Determinism is the design center: every per-packet decision is a pure
// function of (seed, link, packet index), independent of goroutine
// interleaving, so the same seed always yields the same drop/duplicate/
// reorder schedule — the property the chaos experiments' repeatability
// tests assert. Like the obs tracer, the disabled path is free: a nil
// *Injector judges every packet as clean and wraps connections as
// no-ops, so instrumented paths pay only a pointer test.
package faults

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Rule scripts one fault pattern on a directional link. Zero-valued
// fields inject nothing, so a Rule only describes the faults it names.
type Rule struct {
	// From and To match the link's endpoint names; empty or "*" matches
	// any endpoint. Endpoint names are transport addresses (memnet node
	// names or UDP host:port strings).
	From, To string
	// FirstPacket and LastPacket bound the rule to a window of packet
	// indexes on the matched link: the rule applies to the half-open
	// index range [FirstPacket, LastPacket). A zero LastPacket leaves
	// the window open-ended. Indexes count packets sent on the link
	// since the injector was created.
	FirstPacket, LastPacket uint64
	// Drop is the probability the packet is lost in transit.
	Drop float64
	// Dup is the probability the packet is delivered twice.
	Dup float64
	// Reorder is the probability the packet is held back and delivered
	// behind the next packet on the link.
	Reorder float64
	// Delay is added to every matched packet's delivery.
	Delay time.Duration
	// Partition drops every matched packet — a one-way partition. Cut
	// both directions with a second mirrored rule.
	Partition bool
}

// matches reports whether the rule applies to the link and packet index.
func (r Rule) matches(from, to string, n uint64) bool {
	if r.From != "" && r.From != "*" && r.From != from {
		return false
	}
	if r.To != "" && r.To != "*" && r.To != to {
		return false
	}
	if n < r.FirstPacket {
		return false
	}
	if r.LastPacket > 0 && n >= r.LastPacket {
		return false
	}
	return true
}

// Verdict is the injector's decision for one packet.
type Verdict struct {
	Drop    bool
	Dup     bool
	Reorder bool
	Delay   time.Duration
}

// Injector evaluates fault rules over links. Safe for concurrent use.
// A nil *Injector is the disabled injector: it judges every packet
// clean and wraps connections as pass-throughs.
type Injector struct {
	seed  int64
	rules []Rule

	mu     sync.Mutex
	counts map[string]uint64 // per-link packet index
	down   map[string]bool   // endpoints taken down (kill/restart)
}

// NewInjector builds an injector with a deterministic seed and an
// initial rule set.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{
		seed:   seed,
		rules:  append([]Rule(nil), rules...),
		counts: make(map[string]uint64),
		down:   make(map[string]bool),
	}
}

// SetDown marks an endpoint as crashed: every packet to or from it is
// dropped until the endpoint is brought back up. This is the transport
// face of killing a worker daemon.
func (inj *Injector) SetDown(endpoint string, down bool) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	if down {
		inj.down[endpoint] = true
	} else {
		delete(inj.down, endpoint)
	}
	inj.mu.Unlock()
}

// IsDown reports whether the endpoint is marked crashed.
func (inj *Injector) IsDown(endpoint string) bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.down[endpoint]
}

// Salts separating the independent random draws made per packet.
const (
	saltDrop = iota + 1
	saltDup
	saltReorder
)

// u01 derives a uniform [0,1) value as a pure function of (seed, link,
// packet index, salt) with a splitmix64-style finalizer, so fault
// decisions do not depend on goroutine interleaving.
func (inj *Injector) u01(link string, n uint64, salt uint64) float64 {
	h := uint64(inj.seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(link); i++ {
		h ^= uint64(link[i])
		h *= 0x100000001b3
	}
	h ^= n * 0xbf58476d1ce4e5b9
	h ^= salt * 0x94d049bb133111eb
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// Judge decides the fate of the next packet on the from→to link. On a
// nil injector it returns the clean verdict without any bookkeeping.
func (inj *Injector) Judge(from, to string) Verdict {
	if inj == nil {
		return Verdict{}
	}
	link := from + "\x00" + to
	inj.mu.Lock()
	n := inj.counts[link]
	inj.counts[link] = n + 1
	if inj.down[from] || inj.down[to] {
		inj.mu.Unlock()
		return Verdict{Drop: true}
	}
	var v Verdict
	rules := inj.rules
	inj.mu.Unlock()
	for _, r := range rules {
		if !r.matches(from, to, n) {
			continue
		}
		if r.Partition || (r.Drop > 0 && inj.u01(link, n, saltDrop) < r.Drop) {
			return Verdict{Drop: true}
		}
		if r.Dup > 0 && inj.u01(link, n, saltDup) < r.Dup {
			v.Dup = true
		}
		if r.Reorder > 0 && inj.u01(link, n, saltReorder) < r.Reorder {
			v.Reorder = true
		}
		v.Delay += r.Delay
	}
	return v
}

// ParseRules parses the compact flag syntax used by the daemons'
// -faults flag: comma-separated key=value pairs forming one rule, e.g.
// "drop=0.05,dup=0.01,reorder=0.02,delay=2ms". Recognized keys: drop,
// dup, reorder, delay, from, to, first, last, partition.
func ParseRules(spec string) ([]Rule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var r Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad rule term %q (want key=value)", part)
		}
		var err error
		switch key {
		case "drop":
			_, err = fmt.Sscanf(val, "%g", &r.Drop)
		case "dup":
			_, err = fmt.Sscanf(val, "%g", &r.Dup)
		case "reorder":
			_, err = fmt.Sscanf(val, "%g", &r.Reorder)
		case "delay":
			r.Delay, err = time.ParseDuration(val)
		case "from":
			r.From = val
		case "to":
			r.To = val
		case "first":
			_, err = fmt.Sscanf(val, "%d", &r.FirstPacket)
		case "last":
			_, err = fmt.Sscanf(val, "%d", &r.LastPacket)
		case "partition":
			r.Partition = val == "true" || val == "1"
		default:
			return nil, fmt.Errorf("faults: unknown rule key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %s: %w", key, err)
		}
	}
	return []Rule{r}, nil
}
