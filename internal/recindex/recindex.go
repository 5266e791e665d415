// Package recindex implements the RecScoreIndex of §IV-C (Fig. 4): a hash
// table from user id to a B+-tree (the user's RecTree) holding that user's
// pre-computed predicted rating scores, keyed so leaves read in rating
// order. The INDEXRECOMMEND operator (Algorithm 3) traverses it in three
// phases: user-id filtering on the hash table, rating-value filtering on
// the tree, and item-id filtering on the leaves.
package recindex

import (
	"sync"

	"recdb/internal/btree"
	"recdb/internal/types"
)

// Entry is one pre-computed prediction.
type Entry struct {
	Item  int64
	Score float64
}

// recTree is one user's RecTree plus the reverse map needed to evict by
// item id (the tree is keyed by (score, item)).
type recTree struct {
	tree  *btree.Tree
	items map[int64]float64 // item → score currently in the tree
	// complete says the tree holds a score for every item the user has not
	// rated (Fill). Algorithm 4 admits and evicts (user, item) pairs, so a
	// tree it built, or one it evicted from, is partial.
	complete bool
}

// Index is the RecScoreIndex. It is safe for concurrent use.
type Index struct {
	mu    sync.RWMutex
	users map[int64]*recTree
	gen   uint64 // Clears so far
}

// New returns an empty RecScoreIndex.
func New() *Index {
	return &Index{users: make(map[int64]*recTree)}
}

func key(score float64, item int64) types.Row {
	return types.Row{types.NewFloat(score), types.NewInt(item)}
}

// Put stores (or replaces) the pre-computed score for (user, item).
func (ix *Index) Put(user, item int64, score float64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.putLocked(user, item, score)
}

// PutAll stores user's entries as Put does, but only while the index is
// still at generation gen, and reports whether it was. A caller reads the
// generation before the model it scores with: a rebuild replaces the model
// and then clears the index, so scores computed from a model that has
// since been replaced are dropped rather than served.
func (ix *Index) PutAll(gen uint64, user int64, entries []Entry) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.gen != gen {
		return false
	}
	for _, e := range entries {
		ix.putLocked(user, e.Item, e.Score)
	}
	return true
}

func (ix *Index) putLocked(user, item int64, score float64) {
	rt := ix.users[user]
	if rt == nil {
		rt = newRecTree()
		ix.users[user] = rt
	}
	if old, ok := rt.items[item]; ok {
		rt.tree.Delete(key(old, item))
	}
	rt.items[item] = score
	rt.tree.Insert(key(score, item), score)
}

func newRecTree() *recTree {
	return &recTree{tree: btree.New(0), items: make(map[int64]float64)}
}

// Fill replaces user's tree with entries, the scores of every item the
// user has not rated, and marks it complete (MaterializeUser/All) — only
// while the index is still at generation gen, as PutAll does, and reports
// whether it was.
func (ix *Index) Fill(gen uint64, user int64, entries []Entry) bool {
	rt := newRecTree()
	rt.complete = true
	for _, e := range entries {
		rt.items[e.Item] = e.Score
		rt.tree.Insert(key(e.Score, e.Item), e.Score)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.gen != gen {
		return false
	}
	ix.users[user] = rt
	return true
}

// Remove evicts the entry for (user, item), which leaves the user's tree
// partial. It reports whether an entry existed.
func (ix *Index) Remove(user, item int64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	rt := ix.users[user]
	if rt == nil {
		return false
	}
	old, ok := rt.items[item]
	if !ok {
		return false
	}
	delete(rt.items, item)
	rt.tree.Delete(key(old, item))
	rt.complete = false
	if len(rt.items) == 0 {
		delete(ix.users, user)
	}
	return true
}

// RemoveUser evicts every entry of a user (model rebuild invalidation).
func (ix *Index) RemoveUser(user int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.users, user)
}

// Clear evicts everything and starts the index's next generation.
func (ix *Index) Clear() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.users = make(map[int64]*recTree)
	ix.gen++
}

// Generation counts the Clears so far (see PutAll).
func (ix *Index) Generation() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// Complete reports whether user's tree holds a score for every item the
// user has not rated: filled whole and not evicted from since. Only then
// can Algorithm 3 answer for the user from the tree alone (its Phase I).
func (ix *Index) Complete(user int64) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rt := ix.users[user]
	return rt != nil && rt.complete
}

// Get returns the materialized score for (user, item), if present.
func (ix *Index) Get(user, item int64) (float64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rt := ix.users[user]
	if rt == nil {
		return 0, false
	}
	s, ok := rt.items[item]
	return s, ok
}

// UserLen returns the number of materialized entries for user.
func (ix *Index) UserLen(user int64) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rt := ix.users[user]
	if rt == nil {
		return 0
	}
	return len(rt.items)
}

// Len returns the total number of materialized entries.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, rt := range ix.users {
		n += len(rt.items)
	}
	return n
}

// Users returns the ids of all users with materialized entries.
func (ix *Index) Users() []int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]int64, 0, len(ix.users))
	for u := range ix.users {
		out = append(out, u)
	}
	return out
}

// Descend visits user's entries in descending score order (Phases II-III
// of Algorithm 3), stopping when fn returns false. Entries with score
// above maxScore are skipped when maxScore is non-nil, implementing the
// rating-value predicate pushdown of Phase II.
func (ix *Index) Descend(user int64, maxScore *float64, fn func(Entry) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rt := ix.users[user]
	if rt == nil {
		return
	}
	var from types.Row
	if maxScore != nil {
		// Items sort after score within a key, so start just past the
		// maximal item id at this score.
		from = types.Row{types.NewFloat(*maxScore), types.NewInt(int64(^uint64(0) >> 1))}
	}
	rt.tree.Descend(from, func(k types.Row, _ any) bool {
		return fn(Entry{Item: k[1].Int(), Score: k[0].Float()})
	})
}

// TopK returns user's k highest-scored entries that satisfy filter (nil
// admits all), in descending score order.
func (ix *Index) TopK(user int64, k int, filter func(Entry) bool) []Entry {
	out := make([]Entry, 0, k)
	ix.Descend(user, nil, func(e Entry) bool {
		if filter == nil || filter(e) {
			out = append(out, e)
		}
		return len(out) < k
	})
	return out
}
