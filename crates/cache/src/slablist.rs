//! An intrusive doubly-linked list backed by a slab of nodes.
//!
//! Cache replacement needs O(1) "move this entry to the front" and "pop the
//! back"; a pointer-based list would need `unsafe`, so nodes live in a `Vec`
//! and links are indices. Freed slots are recycled through a free list, so a
//! long-running cache performs no per-operation allocation once warm.

/// Sentinel index meaning "no node".
const NIL: u32 = u32::MAX;

/// A stable handle to a list node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(u32);

#[derive(Debug, Clone)]
struct Node<T> {
    prev: u32,
    next: u32,
    value: Option<T>,
}

/// Doubly-linked list over a slab; front = most recent.
#[derive(Debug, Clone)]
pub struct SlabList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> Default for SlabList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlabList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        SlabList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, value: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize].value = Some(value);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "slab list full");
            self.nodes.push(Node {
                prev: NIL,
                next: NIL,
                value: Some(value),
            });
            idx
        }
    }

    /// Links the detached node `idx` in at the front.
    fn link_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Detaches the live node `idx` from its neighbours.
    ///
    /// # Panics
    /// Panics if the node is not live (its handle is stale).
    fn unlink(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        assert!(node.value.is_some(), "stale list handle");
        let (prev, next) = (node.prev, node.next);
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Pushes a value at the front (most-recent end); returns its handle.
    pub fn push_front(&mut self, value: T) -> Handle {
        let idx = self.alloc(value);
        self.link_front(idx);
        self.len += 1;
        Handle(idx)
    }

    /// Detaches `h` from the list and returns its value.
    ///
    /// # Panics
    /// Panics if the handle is stale (already removed).
    pub fn remove(&mut self, h: Handle) -> T {
        self.unlink(h.0);
        self.len -= 1;
        self.free.push(h.0);
        self.nodes[h.0 as usize]
            .value
            .take()
            .expect("unlink checked it")
    }

    /// Moves `h` to the front (most-recent end). Only links change: the
    /// value stays in its slot, however large it is.
    pub fn move_to_front(&mut self, h: Handle) {
        if self.head != h.0 {
            self.unlink(h.0);
            self.link_front(h.0);
        }
    }

    /// Returns a reference to the value at `h`.
    pub fn get(&self, h: Handle) -> Option<&T> {
        self.nodes.get(h.0 as usize).and_then(|n| n.value.as_ref())
    }

    /// Returns a mutable reference to the value at `h`.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        self.nodes
            .get_mut(h.0 as usize)
            .and_then(|n| n.value.as_mut())
    }

    /// Returns the handle of the back (least-recent) element.
    pub fn back(&self) -> Option<Handle> {
        if self.tail == NIL {
            None
        } else {
            Some(Handle(self.tail))
        }
    }

    /// Returns the handle of the front (most-recent) element.
    pub fn front(&self) -> Option<Handle> {
        if self.head == NIL {
            None
        } else {
            Some(Handle(self.head))
        }
    }

    /// Removes and returns the back (least-recent) element.
    pub fn pop_back(&mut self) -> Option<T> {
        self.back().map(|h| self.remove(h))
    }

    /// Iterates front (most recent) to back (least recent).
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            list: self,
            cur: self.head,
        }
    }
}

/// Front-to-back iterator over a [`SlabList`].
pub struct Iter<'a, T> {
    list: &'a SlabList<T>,
    cur: u32,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cur as usize];
        self.cur = node.next;
        node.value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(list: &SlabList<i32>) -> Vec<i32> {
        list.iter().copied().collect()
    }

    #[test]
    fn push_front_orders_mru_first() {
        let mut l = SlabList::new();
        l.push_front(1);
        l.push_front(2);
        l.push_front(3);
        assert_eq!(collect(&l), vec![3, 2, 1]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn pop_back_returns_lru() {
        let mut l = SlabList::new();
        l.push_front(1);
        l.push_front(2);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn move_to_front_promotes() {
        let mut l = SlabList::new();
        let a = l.push_front(1);
        l.push_front(2);
        l.push_front(3);
        l.move_to_front(a);
        assert_eq!(collect(&l), vec![1, 3, 2]);
    }

    #[test]
    fn move_front_of_front_is_noop() {
        let mut l = SlabList::new();
        l.push_front(1);
        let b = l.push_front(2);
        l.move_to_front(b);
        assert_eq!(collect(&l), vec![2, 1]);
    }

    #[test]
    fn remove_middle_relinks() {
        let mut l = SlabList::new();
        l.push_front(1);
        let b = l.push_front(2);
        l.push_front(3);
        assert_eq!(l.remove(b), 2);
        assert_eq!(collect(&l), vec![3, 1]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn slots_are_recycled() {
        let mut l = SlabList::new();
        let a = l.push_front(1);
        l.remove(a);
        let b = l.push_front(2);
        // The freed slot is reused, so the slab does not grow.
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn handles_survive_promotion() {
        let mut l = SlabList::new();
        let a = l.push_front(10);
        l.push_front(20);
        l.move_to_front(a);
        assert_eq!(l.get(a), Some(&10));
    }

    #[test]
    #[should_panic(expected = "stale list handle")]
    fn stale_handle_panics() {
        let mut l = SlabList::new();
        let a = l.push_front(1);
        l.remove(a);
        l.remove(a);
    }

    #[test]
    fn single_element_front_back_agree() {
        let mut l = SlabList::new();
        let a = l.push_front(7);
        assert_eq!(l.front(), Some(a));
        assert_eq!(l.back(), Some(a));
    }
}
