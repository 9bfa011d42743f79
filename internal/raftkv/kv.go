package raftkv

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Command is one state-machine operation carried in a log entry.
type Command struct {
	// Op is "put" or "delete".
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// Command operations.
const (
	OpPut    = "put"
	OpDelete = "delete"
)

// EncodeCommand serializes a command for proposal.
func EncodeCommand(c Command) ([]byte, error) {
	if c.Op != OpPut && c.Op != OpDelete {
		return nil, fmt.Errorf("raftkv: invalid op %q", c.Op)
	}
	return json.Marshal(c)
}

// DecodeCommand parses a log entry's payload.
func DecodeCommand(data []byte) (Command, error) {
	var c Command
	if err := json.Unmarshal(data, &c); err != nil {
		return Command{}, fmt.Errorf("raftkv: decode command: %w", err)
	}
	return c, nil
}

// KV is the replicated key-value state machine one node applies
// committed entries to.
type KV struct {
	data map[string]string
}

// NewKV returns an empty state machine.
func NewKV() *KV { return &KV{data: make(map[string]string)} }

// Apply executes one committed entry.
func (kv *KV) Apply(e Entry) error {
	if len(e.Data) == 0 {
		return nil // no-op entry
	}
	c, err := DecodeCommand(e.Data)
	if err != nil {
		return err
	}
	switch c.Op {
	case OpPut:
		kv.data[c.Key] = c.Value
	case OpDelete:
		delete(kv.data, c.Key)
	}
	return nil
}

// Get reads a key.
func (kv *KV) Get(key string) (string, bool) {
	v, ok := kv.data[key]
	return v, ok
}

// Snapshot copies the state (for tests and observers).
func (kv *KV) Snapshot() map[string]string {
	out := make(map[string]string, len(kv.data))
	for k, v := range kv.data {
		out[k] = v
	}
	return out
}

// Cluster is a single-threaded harness running N Raft nodes with
// in-memory message delivery, used by the λ-NIC control plane to keep
// deployment state consistent and by tests to inject partitions and
// message loss. All methods must be called from one goroutine.
type Cluster struct {
	// order fixes iteration order so runs are deterministic.
	order  []NodeID
	nodes  map[NodeID]*Node
	kvs    map[NodeID]*KV
	downed map[NodeID]bool
	// cut marks severed links, keyed by [from][to].
	cut map[NodeID]map[NodeID]bool

	// inflight messages awaiting delivery.
	queue []Message

	// watchers are notified as committed commands apply (the etcd-style
	// watch the gateway uses to track placement changes).
	watchers []watcher

	// lastLeader and leaderChanges track control-plane churn: every
	// transition to a different leader after the first election counts.
	// leaderChanges is atomic so monitoring can scrape it from another
	// goroutine while the (single-threaded) cluster runs.
	lastLeader    NodeID
	leaderChanges atomic.Uint64
}

type watcher struct {
	node   NodeID
	prefix string
	fn     func(Command)
}

// Cluster errors.
var (
	ErrNoLeader = errors.New("raftkv: no leader elected")
	ErrTimedOut = errors.New("raftkv: commit did not complete")
)

// NewCluster builds an n-node cluster (IDs 1..n).
func NewCluster(n int, seed int64) *Cluster {
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i + 1)
	}
	c := &Cluster{
		order:  peers,
		nodes:  make(map[NodeID]*Node, n),
		kvs:    make(map[NodeID]*KV, n),
		downed: make(map[NodeID]bool),
		cut:    make(map[NodeID]map[NodeID]bool),
	}
	for _, id := range peers {
		c.nodes[id] = NewNode(id, peers, seed+int64(id))
		c.kvs[id] = NewKV()
	}
	return c
}

// Node returns a member (tests only).
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// KV returns a member's applied state machine.
func (c *Cluster) KV(id NodeID) *KV { return c.kvs[id] }

// Down takes a node offline (it neither ticks nor receives messages).
func (c *Cluster) Down(id NodeID) { c.downed[id] = true }

// Up brings a node back online.
func (c *Cluster) Up(id NodeID) { delete(c.downed, id) }

// Partition severs all links between group A and group B (both ways).
func (c *Cluster) Partition(a, b []NodeID) {
	for _, x := range a {
		for _, y := range b {
			c.cutLink(x, y)
			c.cutLink(y, x)
		}
	}
}

func (c *Cluster) cutLink(from, to NodeID) {
	if c.cut[from] == nil {
		c.cut[from] = make(map[NodeID]bool)
	}
	c.cut[from][to] = true
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.cut = make(map[NodeID]map[NodeID]bool) }

// Tick advances every live node one logical tick and delivers all
// resulting messages to quiescence.
func (c *Cluster) Tick() {
	for _, id := range c.order {
		if c.downed[id] {
			continue
		}
		c.nodes[id].Tick()
	}
	c.pump()
}

// pump collects outboxes and delivers messages until none remain.
func (c *Cluster) pump() {
	for {
		for _, id := range c.order {
			n := c.nodes[id]
			if c.downed[id] {
				n.Outbox() // drop a dead node's output
				continue
			}
			c.queue = append(c.queue, n.Outbox()...)
			c.applyEntries(id)
		}
		if len(c.queue) == 0 {
			c.autoCompact()
			c.noteLeader()
			return
		}
		batch := c.queue
		c.queue = nil
		for _, m := range batch {
			if c.downed[m.To] || c.downed[m.From] {
				continue
			}
			if c.cut[m.From][m.To] {
				continue
			}
			dst, ok := c.nodes[m.To]
			if !ok {
				continue
			}
			dst.Step(m)
		}
	}
}

// autoCompact snapshots any node whose log outgrew the threshold —
// etcd's periodic snapshotting, keeping long-running control stores
// bounded.
func (c *Cluster) autoCompact() {
	for _, id := range c.order {
		if c.downed[id] {
			continue
		}
		n := c.nodes[id]
		if n.LogLen() > snapshotThreshold && n.lastApplied > n.snapIndex {
			_ = n.CompactTo(n.lastApplied, c.kvs[id].Snapshot())
		}
	}
}

func (c *Cluster) applyEntries(id NodeID) {
	if snap := c.nodes[id].TakeInstalledSnapshot(); snap != nil {
		c.kvs[id].Load(snap.State)
	}
	for _, e := range c.nodes[id].Applied() {
		// Apply errors indicate corrupt proposals; the state machine
		// skips them (they were validated at proposal time).
		_ = c.kvs[id].Apply(e)
		c.notify(id, e)
	}
}

func (c *Cluster) notify(id NodeID, e Entry) {
	if len(c.watchers) == 0 || len(e.Data) == 0 {
		return
	}
	cmd, err := DecodeCommand(e.Data)
	if err != nil {
		return
	}
	for _, w := range c.watchers {
		if w.node == id && strings.HasPrefix(cmd.Key, w.prefix) {
			w.fn(cmd)
		}
	}
}

// Subscribe registers a watch on one node's applied commands under a
// key prefix — the etcd watch mechanism the control plane uses to push
// placement changes to the gateway. The callback runs synchronously
// inside the cluster's apply path and must not call back into the
// cluster.
func (c *Cluster) Subscribe(node NodeID, prefix string, fn func(Command)) {
	c.watchers = append(c.watchers, watcher{node: node, prefix: prefix, fn: fn})
}

// noteLeader records leadership transitions once the message queue
// quiesces.
func (c *Cluster) noteLeader() {
	l := c.Leader()
	if l == 0 || l == c.lastLeader {
		return
	}
	if c.lastLeader != 0 {
		c.leaderChanges.Add(1)
	}
	c.lastLeader = l
}

// LeaderChanges counts transitions to a different leader after the
// first election — the control-plane churn signal chaos runs correlate
// with data-plane recovery. Safe to read from any goroutine.
func (c *Cluster) LeaderChanges() uint64 { return c.leaderChanges.Load() }

// Leader returns the current leader if exactly one live node believes
// it leads at the highest term, else 0.
func (c *Cluster) Leader() NodeID {
	var best NodeID
	var bestTerm uint64
	for _, id := range c.order {
		n := c.nodes[id]
		if c.downed[id] || n.State() != Leader {
			continue
		}
		if n.Term() > bestTerm {
			best, bestTerm = id, n.Term()
		}
	}
	return best
}

// ElectLeader ticks until a leader emerges, up to maxTicks.
func (c *Cluster) ElectLeader(maxTicks int) (NodeID, error) {
	for i := 0; i < maxTicks; i++ {
		if l := c.Leader(); l != 0 {
			return l, nil
		}
		c.Tick()
	}
	if l := c.Leader(); l != 0 {
		return l, nil
	}
	return 0, ErrNoLeader
}

// Put proposes key=value on the leader and ticks until the entry
// commits and applies on the leader, up to maxTicks.
func (c *Cluster) Put(key, value string, maxTicks int) error {
	return c.propose(Command{Op: OpPut, Key: key, Value: value}, maxTicks)
}

// Delete proposes a key removal.
func (c *Cluster) Delete(key string, maxTicks int) error {
	return c.propose(Command{Op: OpDelete, Key: key}, maxTicks)
}

func (c *Cluster) propose(cmd Command, maxTicks int) error {
	leaderID, err := c.ElectLeader(maxTicks)
	if err != nil {
		return err
	}
	data, err := EncodeCommand(cmd)
	if err != nil {
		return err
	}
	leader := c.nodes[leaderID]
	index, err := leader.Propose(data)
	if err != nil {
		return err
	}
	c.pump()
	for i := 0; i < maxTicks; i++ {
		if leader.CommitIndex() >= index && leader.State() == Leader {
			c.pump()
			return nil
		}
		if leader.State() != Leader {
			// Leadership changed mid-proposal; the weakly-consistent
			// control plane retries.
			return c.propose(cmd, maxTicks)
		}
		c.Tick()
	}
	return fmt.Errorf("%w: index %d", ErrTimedOut, index)
}

// Get reads a key from a node's applied state (a follower read may
// lag the leader; use the leader for read-your-writes).
func (c *Cluster) Get(id NodeID, key string) (string, bool) {
	return c.kvs[id].Get(key)
}
