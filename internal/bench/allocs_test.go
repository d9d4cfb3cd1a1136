package bench

import (
	"testing"

	"repro/internal/group"
)

// TestBatchedMulticastAllocBudget pins the batched ordering hot path's
// allocation count. The packet arena, inline delivery queue entries,
// zero-copy fan-out snapshots and preallocated accumulation buffer brought
// the 8-member sequencer path from ~13 allocs/op to ~1.5 (the remainder is
// mostly the `any` boxing of the benchmark body plus simulator events); the
// budget leaves headroom for runtime variation while catching any
// reintroduced per-message or per-delivery allocation, which would add at
// least 1/op (packet) or 8/op (delivery closures at 8 members).
func TestBatchedMulticastAllocBudget(t *testing.T) {
	const budget = 4.0
	got := MulticastAllocsPerOp(MulticastOptions{
		Members:  8,
		Ordering: group.TotalSequencer,
		Batch:    group.BatchConfig{MaxMsgs: 64},
		Seed:     1,
	}, 4096)
	t.Logf("batched seq8: %.3f allocs/op (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("batched multicast allocates %.3f/op, budget %.1f — a per-message allocation crept back into the hot path", got, budget)
	}
}

// TestSessionPostAllocBudget pins the session post path's allocation count.
// A push costs its MsgItems and item slice but no per-send closure: the
// host's outbox queues sends in a reused slice behind one prebuilt flush
// callback, which took the path from 8 allocs/op to 7. A reintroduced
// per-send allocation adds at least 1/op.
func TestSessionPostAllocBudget(t *testing.T) {
	const budget = 7.5
	got := SessionPostAllocsPerOp(1, 4096)
	t.Logf("session post: %.3f allocs/op (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("session post allocates %.3f/op, budget %.1f — a per-send allocation crept back into the host", got, budget)
	}
}
