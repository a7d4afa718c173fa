// Package readindex implements the segment read index of §4.2: a sorted
// index of entries per segment keyed by start offset, backed by a custom
// AVL search tree to minimize memory while keeping O(log n) access. Each
// entry locates a contiguous range of segment bytes either in the block
// cache or in long-term storage. Cached entries are also kept in order of
// last use, the usage metadata that drives cache eviction: evicting costs
// the entries evicted, however many the index holds.
package readindex

// avlNode is one tree node. Keys are segment offsets.
type avlNode struct {
	key         int64
	value       *item
	left, right *avlNode
	height      int
}

// tree is an AVL tree keyed by int64.
type tree struct {
	root *avlNode
	size int
}

func height(n *avlNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *avlNode) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func balanceFactor(n *avlNode) int { return height(n.left) - height(n.right) }

func rotateRight(y *avlNode) *avlNode {
	x := y.left
	y.left = x.right
	x.right = y
	fix(y)
	fix(x)
	return x
}

func rotateLeft(x *avlNode) *avlNode {
	y := x.right
	x.right = y.left
	y.left = x
	fix(x)
	fix(y)
	return y
}

func rebalance(n *avlNode) *avlNode {
	fix(n)
	bf := balanceFactor(n)
	if bf > 1 {
		if balanceFactor(n.left) < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	}
	if bf < -1 {
		if balanceFactor(n.right) > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func (t *tree) put(key int64, v *item) {
	var inserted bool
	t.root, inserted = put(t.root, key, v)
	if inserted {
		t.size++
	}
}

func put(n *avlNode, key int64, v *item) (*avlNode, bool) {
	if n == nil {
		return &avlNode{key: key, value: v, height: 1}, true
	}
	var inserted bool
	switch {
	case key < n.key:
		n.left, inserted = put(n.left, key, v)
	case key > n.key:
		n.right, inserted = put(n.right, key, v)
	default:
		n.value = v
		return n, false
	}
	return rebalance(n), inserted
}

func (t *tree) delete(key int64) bool {
	var deleted bool
	t.root, deleted = del(t.root, key)
	if deleted {
		t.size--
	}
	return deleted
}

func del(n *avlNode, key int64) (*avlNode, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case key < n.key:
		n.left, deleted = del(n.left, key)
	case key > n.key:
		n.right, deleted = del(n.right, key)
	default:
		deleted = true
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		// Replace with in-order successor.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.key, n.value = succ.key, succ.value
		n.right, _ = del(n.right, succ.key)
	}
	return rebalance(n), deleted
}

// get returns the exact-key value.
func (t *tree) get(key int64) *item {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.value
		}
	}
	return nil
}

// floor returns the entry with the greatest key <= key.
func (t *tree) floor(key int64) *item {
	var best *avlNode
	n := t.root
	for n != nil {
		if n.key == key {
			return n.value
		}
		if n.key < key {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		return nil
	}
	return best.value
}

// ceiling returns the entry with the smallest key >= key.
func (t *tree) ceiling(key int64) *item {
	var best *avlNode
	n := t.root
	for n != nil {
		if n.key == key {
			return n.value
		}
		if n.key > key {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		return nil
	}
	return best.value
}

func (t *tree) min() *item {
	n := t.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n.value
}

func (t *tree) max() *item {
	n := t.root
	if n == nil {
		return nil
	}
	for n.right != nil {
		n = n.right
	}
	return n.value
}

// ascend visits entries with key in [lo, hi) in order; fn returning false
// stops the walk.
func (t *tree) ascend(lo, hi int64, fn func(*item) bool) {
	ascend(t.root, lo, hi, fn)
}

func ascend(n *avlNode, lo, hi int64, fn func(*item) bool) bool {
	if n == nil {
		return true
	}
	if n.key > lo {
		if !ascend(n.left, lo, hi, fn) {
			return false
		}
	}
	if n.key >= lo && n.key < hi {
		if !fn(n.value) {
			return false
		}
	}
	if n.key < hi {
		return ascend(n.right, lo, hi, fn)
	}
	return true
}

// validate checks AVL invariants (test helper).
func (t *tree) validate() bool { return validate(t.root) }

func validate(n *avlNode) bool {
	if n == nil {
		return true
	}
	bf := balanceFactor(n)
	if bf < -1 || bf > 1 {
		return false
	}
	if n.left != nil && n.left.key >= n.key {
		return false
	}
	if n.right != nil && n.right.key <= n.key {
		return false
	}
	return validate(n.left) && validate(n.right)
}
