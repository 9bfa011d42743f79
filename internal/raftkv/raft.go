// Package raftkv is a from-scratch Raft consensus implementation with a
// key-value state machine, standing in for etcd in the λ-NIC control
// plane: the paper's bare-metal backend "relies on a Raft-based
// distributed key-value store, called etcd, to sync lambda-related
// states (number of active lambdas, their placement and load balancing
// policies) with the gateway" (§6.1.1), and λ-NIC augments the same
// store to manage deployments across worker nodes.
//
// The consensus core follows the Raft paper (Ongaro & Ousterhout 2014,
// the paper's reference [83]): leader election with randomized
// timeouts, log replication via AppendEntries, and commitment on quorum
// match. The design is an etcd-raft-style deterministic state machine —
// no goroutines or timers inside the node; callers drive it with Tick
// and Step and drain outgoing messages and applied entries — which
// makes elections and failures exhaustively testable.
package raftkv

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// NodeID identifies a cluster member (1-based).
type NodeID int

// State is a node's Raft role.
type State int

// Raft roles.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

// String names the role.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// MsgType enumerates Raft RPCs.
type MsgType int

// Message types.
const (
	MsgVoteRequest MsgType = iota + 1
	MsgVoteResponse
	MsgAppend // AppendEntries: replication and heartbeat
	MsgAppendResponse
)

// Entry is one replicated log entry.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// Message is one Raft RPC.
type Message struct {
	Type MsgType
	From NodeID
	To   NodeID
	Term uint64

	// Vote requests / append: candidate's or leader's log position.
	LogIndex uint64 // prevLogIndex for appends, lastLogIndex for votes
	LogTerm  uint64

	// Append payload.
	Entries []Entry
	Commit  uint64

	// Responses.
	Granted bool   // vote granted / append success
	Match   uint64 // follower's match index on success, hint on failure
}

// Node errors.
var (
	ErrNotLeader = errors.New("raftkv: not the leader")
)

// Tick counts for timeouts (in Tick() units).
const (
	heartbeatTicks  = 1
	electionMinTick = 10
	electionMaxTick = 20
)

// Node is one Raft participant. Drive it with Tick/Step/Propose and
// drain Outbox and Applied after each call. Not safe for concurrent
// use; wrap with external synchronization (see Cluster).
type Node struct {
	id    NodeID
	peers []NodeID // all members including self

	state    State
	term     uint64
	votedFor NodeID
	votes    map[NodeID]bool
	leader   NodeID

	// log is 1-indexed: log[0] is a sentinel with Term 0, Index 0.
	log         []Entry
	commitIndex uint64
	lastApplied uint64

	nextIndex  map[NodeID]uint64
	matchIndex map[NodeID]uint64

	electionElapsed  int
	electionTimeout  int
	heartbeatElapsed int

	// Compaction state (snapshot.go).
	snapIndex       uint64
	snapTerm        uint64
	snapshot        map[string]string
	pendingSnapshot *Snapshot

	rng *rand.Rand

	outbox  []Message
	applied []Entry
}

// NewNode constructs a follower with an empty log.
func NewNode(id NodeID, peers []NodeID, seed int64) *Node {
	n := &Node{
		id:         id,
		peers:      append([]NodeID(nil), peers...),
		state:      Follower,
		log:        []Entry{{}},
		nextIndex:  make(map[NodeID]uint64),
		matchIndex: make(map[NodeID]uint64),
		votes:      make(map[NodeID]bool),
		rng:        rand.New(rand.NewSource(seed)),
	}
	n.resetElectionTimeout()
	return n
}

// State returns the node's current role.
func (n *Node) State() State { return n.state }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the node's view of the current leader (0 if unknown).
func (n *Node) Leader() NodeID { return n.leader }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// LogLen returns the number of real entries in the log.
func (n *Node) LogLen() int { return len(n.log) - 1 }

// Outbox drains pending outgoing messages.
func (n *Node) Outbox() []Message {
	out := n.outbox
	n.outbox = nil
	return out
}

// Applied drains newly committed entries, in order.
func (n *Node) Applied() []Entry {
	out := n.applied
	n.applied = nil
	return out
}

func (n *Node) resetElectionTimeout() {
	n.electionElapsed = 0
	n.electionTimeout = electionMinTick + n.rng.Intn(electionMaxTick-electionMinTick+1)
}

func (n *Node) lastLogIndex() uint64 { return n.log[len(n.log)-1].Index }
func (n *Node) lastLogTerm() uint64  { return n.log[len(n.log)-1].Term }

func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

func (n *Node) send(m Message) {
	m.From = n.id
	m.Term = n.term
	n.outbox = append(n.outbox, m)
}

// Tick advances the node's logical clock: followers/candidates count
// toward an election timeout; leaders emit heartbeats.
func (n *Node) Tick() {
	switch n.state {
	case Leader:
		n.heartbeatElapsed++
		if n.heartbeatElapsed >= heartbeatTicks {
			n.heartbeatElapsed = 0
			n.broadcastAppend()
		}
	default:
		n.electionElapsed++
		if n.electionElapsed >= n.electionTimeout {
			n.startElection()
		}
	}
}

func (n *Node) startElection() {
	n.state = Candidate
	n.term++
	n.votedFor = n.id
	n.leader = 0
	n.votes = map[NodeID]bool{n.id: true}
	n.resetElectionTimeout()
	if len(n.peers) == 1 {
		n.becomeLeader()
		return
	}
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.send(Message{
			Type:     MsgVoteRequest,
			To:       p,
			LogIndex: n.lastLogIndex(),
			LogTerm:  n.lastLogTerm(),
		})
	}
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.leader = n.id
	n.heartbeatElapsed = 0
	for _, p := range n.peers {
		n.nextIndex[p] = n.lastLogIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.id] = n.lastLogIndex()
	n.broadcastAppend()
}

func (n *Node) becomeFollower(term uint64, leader NodeID) {
	n.state = Follower
	n.term = term
	n.votedFor = 0
	n.leader = leader
	n.resetElectionTimeout()
}

// Propose appends a command to the leader's log for replication. It
// fails on non-leaders; callers redirect to Leader().
func (n *Node) Propose(data []byte) (uint64, error) {
	if n.state != Leader {
		return 0, fmt.Errorf("%w: node %d is %v", ErrNotLeader, n.id, n.state)
	}
	e := Entry{Term: n.term, Index: n.lastLogIndex() + 1, Data: append([]byte(nil), data...)}
	n.log = append(n.log, e)
	n.matchIndex[n.id] = e.Index
	if len(n.peers) == 1 {
		n.maybeCommit()
	} else {
		n.broadcastAppend()
	}
	return e.Index, nil
}

func (n *Node) broadcastAppend() {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(to NodeID) {
	next := n.nextIndex[to]
	if next < 1 {
		next = 1
	}
	if next > n.lastLogIndex()+1 {
		next = n.lastLogIndex() + 1
	}
	// The follower needs entries we have compacted away: ship the
	// snapshot instead (Raft §7).
	if next <= n.logOffset() && n.snapIndex > 0 {
		n.sendSnapshot(to)
		return
	}
	if next <= n.logOffset() {
		next = n.logOffset() + 1
	}
	prev := n.entryAt(next - 1)
	entries := make([]Entry, 0, n.lastLogIndex()+1-next)
	for i := next; i <= n.lastLogIndex(); i++ {
		entries = append(entries, n.entryAt(i))
	}
	n.send(Message{
		Type:     MsgAppend,
		To:       to,
		LogIndex: prev.Index,
		LogTerm:  prev.Term,
		Entries:  entries,
		Commit:   n.commitIndex,
	})
}

// Step processes one incoming message.
func (n *Node) Step(m Message) {
	if m.Term > n.term {
		leader := NodeID(0)
		if m.Type == MsgAppend {
			leader = m.From
		}
		n.becomeFollower(m.Term, leader)
	}
	switch m.Type {
	case MsgVoteRequest:
		n.stepVoteRequest(m)
	case MsgVoteResponse:
		n.stepVoteResponse(m)
	case MsgAppend:
		n.stepAppend(m)
	case MsgAppendResponse:
		n.stepAppendResponse(m)
	case MsgInstallSnapshot:
		n.stepInstallSnapshot(m)
	}
}

func (n *Node) stepVoteRequest(m Message) {
	grant := false
	if m.Term >= n.term && (n.votedFor == 0 || n.votedFor == m.From) {
		// Election restriction: candidate's log must be at least as
		// up-to-date as ours.
		upToDate := m.LogTerm > n.lastLogTerm() ||
			(m.LogTerm == n.lastLogTerm() && m.LogIndex >= n.lastLogIndex())
		if upToDate {
			grant = true
			n.votedFor = m.From
			n.resetElectionTimeout()
		}
	}
	n.send(Message{Type: MsgVoteResponse, To: m.From, Granted: grant})
}

func (n *Node) stepVoteResponse(m Message) {
	if n.state != Candidate || m.Term < n.term {
		return
	}
	if m.Granted {
		n.votes[m.From] = true
		if len(n.votes) >= n.quorum() {
			n.becomeLeader()
		}
	}
}

func (n *Node) stepAppend(m Message) {
	if m.Term < n.term {
		n.send(Message{Type: MsgAppendResponse, To: m.From, Granted: false, Match: n.commitIndex})
		return
	}
	// Valid leader for this term.
	n.state = Follower
	n.leader = m.From
	n.resetElectionTimeout()

	// Consistency check on the previous entry. A prev index below our
	// compaction point is covered by the snapshot.
	switch {
	case m.LogIndex < n.logOffset():
		n.send(Message{Type: MsgAppendResponse, To: m.From, Granted: false, Match: n.commitIndex})
		return
	case m.LogIndex > n.lastLogIndex() || n.entryAt(m.LogIndex).Term != m.LogTerm:
		n.send(Message{Type: MsgAppendResponse, To: m.From, Granted: false, Match: n.commitIndex})
		return
	}
	// Append, truncating conflicts.
	for _, e := range m.Entries {
		if e.Index <= n.snapIndex {
			continue // covered by the snapshot
		}
		if e.Index <= n.lastLogIndex() {
			if n.entryAt(e.Index).Term != e.Term {
				n.log = n.log[:e.Index-n.logOffset()]
				n.log = append(n.log, e)
			}
			continue
		}
		n.log = append(n.log, e)
	}
	match := m.LogIndex + uint64(len(m.Entries))
	if m.Commit > n.commitIndex {
		n.commitIndex = min64(m.Commit, n.lastLogIndex())
		n.applyCommitted()
	}
	n.send(Message{Type: MsgAppendResponse, To: m.From, Granted: true, Match: match})
}

func (n *Node) stepAppendResponse(m Message) {
	if n.state != Leader || m.Term < n.term {
		return
	}
	if m.Granted {
		if m.Match > n.matchIndex[m.From] {
			n.matchIndex[m.From] = m.Match
		}
		n.nextIndex[m.From] = n.matchIndex[m.From] + 1
		n.maybeCommit()
		return
	}
	// Back off and retry.
	if n.nextIndex[m.From] > m.Match+1 {
		n.nextIndex[m.From] = m.Match + 1
	} else if n.nextIndex[m.From] > 1 {
		n.nextIndex[m.From]--
	}
	n.sendAppend(m.From)
}

// maybeCommit advances commitIndex to the highest index replicated on a
// quorum with an entry from the current term (Raft §5.4.2).
func (n *Node) maybeCommit() {
	matches := make([]uint64, 0, len(n.peers))
	for _, p := range n.peers {
		matches = append(matches, n.matchIndex[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[n.quorum()-1]
	if candidate > n.commitIndex && candidate >= n.logOffset() && n.entryAt(candidate).Term == n.term {
		n.commitIndex = candidate
		n.applyCommitted()
		n.broadcastAppend() // propagate the new commit index promptly
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		if n.lastApplied < n.logOffset() {
			continue // covered by an installed snapshot
		}
		n.applied = append(n.applied, n.entryAt(n.lastApplied))
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
