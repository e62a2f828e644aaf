// Fixture for the publishfreeze analyzer: values mutated after being
// published to concurrent readers through an atomic store or serve's
// Store.Publish.
package publishfreeze

import (
	"sync/atomic"

	"spammass/internal/serve"
)

type config struct {
	Limit int
	Index map[string]int
	Hot   []string
}

var current atomic.Pointer[config]

// WriteAfterStore mutates the value after publishing it: readers that
// already loaded the pointer observe the write mid-request.
func WriteAfterStore(limit int) {
	cfg := &config{Limit: limit}
	current.Store(cfg)
	cfg.Limit = limit * 2 // want `write to cfg\.Limit after it was published by current\.Store`
}

// RetainedMapWrite publishes, then writes through a map view retained
// from before the publish — the classic hidden mutation.
func RetainedMapWrite() {
	cfg := &config{Index: map[string]int{}}
	idx := cfg.Index
	current.Store(cfg)
	idx["a"] = 1 // want `write to idx after it was published by current\.Store`
}

// DeleteAfterSwap publishes via Swap and then deletes from the
// published value's map.
func DeleteAfterSwap() *config {
	cfg := &config{Index: map[string]int{"a": 1}}
	old := current.Swap(cfg)
	delete(cfg.Index, "a") // want `write to cfg\.Index after it was published by current\.Swap`
	return old
}

// BranchWrite only writes on one path, but that path follows the
// publish: still flagged.
func BranchWrite(trim bool) {
	cfg := &config{Hot: []string{"x"}}
	current.Store(cfg)
	if trim {
		cfg.Hot = nil // want `write to cfg\.Hot after it was published by current\.Store`
	}
}

// OverwriteSnapshot republishes through serve's Store and then writes
// through the still-shared old value.
func OverwriteSnapshot(st *serve.Store) {
	snap := st.Load()
	if snap == nil {
		return
	}
	if err := st.Publish(snap); err != nil {
		return
	}
	*snap = serve.Snapshot{} // want `write to snap after it was published by st\.Publish`
}

// BuildThenPublish fills the value in before publishing: clean.
func BuildThenPublish(limit int) {
	cfg := &config{}
	cfg.Limit = limit
	cfg.Index = map[string]int{"a": limit}
	current.Store(cfg)
}

// RebindAfterPublish rebinds the variable to a fresh value after the
// publish; writes to the fresh value are clean.
func RebindAfterPublish(limit int) {
	cfg := &config{Limit: limit}
	current.Store(cfg)
	cfg = &config{}
	cfg.Limit = limit + 1
	current.Store(cfg)
}

// WriteOnUnpublishedPath writes on the path where the publish did NOT
// happen: clean.
func WriteOnUnpublishedPath(publish bool, limit int) {
	cfg := &config{Limit: limit}
	if publish {
		current.Store(cfg)
		return
	}
	cfg.Limit = limit * 2
}

// Suppressed mutates after publish with a written reason.
func Suppressed(limit int) {
	cfg := &config{Limit: limit}
	current.Store(cfg)
	// lint:ignore publishfreeze fixture demonstrates a deliberate post-publish patch
	cfg.Limit = limit * 2
}

// RangeAfterPublish only reads the published value in a loop: clean.
func RangeAfterPublish() int {
	cfg := &config{Hot: []string{"x", "y"}}
	current.Store(cfg)
	total := 0
	for _, h := range cfg.Hot {
		total += len(h)
	}
	return total
}

// RangeWriteAfterPublish writes through the published value inside a
// loop that follows the publish.
func RangeWriteAfterPublish() {
	cfg := &config{Hot: []string{"x", "y"}}
	current.Store(cfg)
	for i := range cfg.Hot {
		cfg.Hot[i] = "" // want `write to cfg after it was published by current\.Store`
	}
}

// RangeIntoPublished uses a field of the published value as the
// iteration variable: the range header itself is the write.
func RangeIntoPublished(limits []int) {
	cfg := &config{}
	current.Store(cfg)
	for _, cfg.Limit = range limits { // want `write to cfg\.Limit after it was published by current\.Store`
	}
}

// SelectAfterPublish waits on channels after the publish and writes in
// one clause only.
func SelectAfterPublish(stop <-chan struct{}, limits <-chan int) {
	cfg := &config{}
	current.Store(cfg)
	select {
	case <-stop:
	case l := <-limits:
		cfg.Limit = l // want `write to cfg\.Limit after it was published by current\.Store`
	}
}
