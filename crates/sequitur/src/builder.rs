//! The incremental SEQUITUR builder.
//!
//! The implementation follows the canonical C++ implementation by
//! Nevill-Manning (symbol nodes in doubly-linked rule bodies, one guard node
//! per rule, and a digram hash table), including the subtle re-indexing
//! fix-ups for runs of identical symbols ("triples") in `join`.
//!
//! # Layout
//!
//! A symbol is one tagged word ([`Sym`]): the top two bits say terminal,
//! non-terminal, guard or freed, and the low 62 bits carry the terminal
//! value or rule id. A body node is `{prev, next, sym}` in 16 bytes, kept
//! in one arena (`Vec<Node>`) with a free list and 31-bit ids; the top bit
//! of `prev` is the node's *indexed* bit. The digram index maps the two
//! symbol words of a digram to the node where it starts, and reads those
//! words back from the arena (see [`DigramIndex`]).
//!
//! # The indexed bit
//!
//! A node's indexed bit is set iff an index entry points at it. Every
//! entry points at a node whose current digram is the entry's key (a
//! node's entry is deleted before its successor changes and before it is
//! freed), so the bit equals "the index maps my digram to me". With it,
//! deleting a node's digram needs no look-up when the bit is clear, which
//! it is for the transient digrams a substitution forms and breaks, and
//! otherwise removes the known slot without comparing keys.

use crate::grammar::{Grammar, GrammarSymbol, GrammarView, RuleId};
use crate::index::{DigramIndex, Keys, NodeId};
use std::fmt;
use std::hash::BuildHasher;
use tempstream_fxhash::{FxBuildHasher, FxHashMap};

/// The null link. Node ids stay below it: the top bit of a node's `prev`
/// word is its indexed bit.
const NIL: NodeId = (1 << 31) - 1;

/// A packed symbol: a 2-bit tag in the top bits over a 62-bit value.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Sym(u64);

impl Sym {
    const TAG_SHIFT: u32 = 62;
    const VALUE: u64 = (1 << Self::TAG_SHIFT) - 1;
    const TERMINAL: u64 = 0;
    const RULE: u64 = 1 << Self::TAG_SHIFT;
    const GUARD: u64 = 2 << Self::TAG_SHIFT;
    /// The symbol of a node on the free list.
    const FREED: Sym = Sym(3 << Self::TAG_SHIFT);
    /// The largest terminal: terminals must leave the tag bits clear.
    const MAX_TERMINAL: u64 = Self::VALUE;

    fn terminal(t: u64) -> Sym {
        Sym(Self::TERMINAL | t)
    }

    fn rule(r: u32) -> Sym {
        Sym(Self::RULE | u64::from(r))
    }

    fn guard(r: u32) -> Sym {
        Sym(Self::GUARD | u64::from(r))
    }

    fn tag(self) -> u64 {
        self.0 & !Self::VALUE
    }

    fn is_guard(self) -> bool {
        self.tag() == Self::GUARD
    }

    fn is_freed(self) -> bool {
        self == Self::FREED
    }

    /// The rule a non-terminal references.
    fn rule_ref(self) -> Option<u32> {
        (self.tag() == Self::RULE).then_some((self.0 & Self::VALUE) as u32)
    }

    /// The rule whose guard this is.
    fn guard_of(self) -> Option<u32> {
        self.is_guard().then_some((self.0 & Self::VALUE) as u32)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0 & Self::VALUE;
        match self.tag() {
            Self::TERMINAL => write!(f, "T{v}"),
            Self::RULE => write!(f, "R{v}"),
            Self::GUARD => write!(f, "G{v}"),
            _ => write!(f, "freed"),
        }
    }
}

/// A digram: the symbols of two adjacent non-guard nodes.
type DigramKey = (Sym, Sym);

#[derive(Debug, Clone)]
struct Node {
    /// The previous node's id, with the indexed bit on top.
    prev_bits: u32,
    next: NodeId,
    sym: Sym,
}

impl Node {
    const INDEXED: u32 = 1 << 31;

    fn prev(&self) -> NodeId {
        self.prev_bits & !Self::INDEXED
    }

    fn set_prev(&mut self, prev: NodeId) {
        self.prev_bits = (self.prev_bits & Self::INDEXED) | prev;
    }

    /// Whether an index entry points at this node.
    fn indexed(&self) -> bool {
        self.prev_bits & Self::INDEXED != 0
    }

    fn set_indexed(&mut self, indexed: bool) {
        self.prev_bits = self.prev() | if indexed { Self::INDEXED } else { 0 };
    }
}

/// The index reads an entry's key back from the node it points at.
impl Keys for [Node] {
    #[inline]
    fn key(&self, node: NodeId) -> (u64, u64) {
        let n = &self[node as usize];
        debug_assert!(!n.sym.is_freed(), "index entry at freed node {node}");
        (n.sym.0, self[n.next as usize].sym.0)
    }
}

#[derive(Debug, Clone)]
struct RuleData {
    guard: NodeId,
    /// Number of non-terminal symbols referencing this rule.
    refcount: u32,
    alive: bool,
}

/// The symbols of one live rule body, read in place: returned by
/// [`Sequitur::body`] and by [`FrozenGrammar`]'s [`GrammarView::body`].
#[derive(Debug, Clone)]
pub struct Body<'a> {
    nodes: &'a [Node],
    guard: NodeId,
    cur: NodeId,
}

impl<'a> Body<'a> {
    fn of(nodes: &'a [Node], rules: &[RuleData], rule: RuleId) -> Self {
        let data = &rules[rule.index()];
        debug_assert!(data.alive, "body of deleted rule {rule}");
        Body {
            nodes,
            guard: data.guard,
            cur: nodes[data.guard as usize].next,
        }
    }
}

impl Iterator for Body<'_> {
    type Item = GrammarSymbol;

    #[inline]
    fn next(&mut self) -> Option<GrammarSymbol> {
        if self.cur == self.guard {
            return None;
        }
        let n = &self.nodes[self.cur as usize];
        debug_assert!(!n.sym.is_guard(), "guard inside rule body");
        self.cur = n.next;
        Some(match n.sym.rule_ref() {
            Some(r) => GrammarSymbol::Rule(RuleId::from_raw(r)),
            // A terminal's word is its value (tag 0).
            None => GrammarSymbol::Terminal(n.sym.0),
        })
    }
}

/// The live builder read in place, through [`Sequitur::body`] and
/// [`Sequitur::rule_bound`].
impl<H: BuildHasher> GrammarView for Sequitur<H> {
    type Body<'a>
        = Body<'a>
    where
        H: 'a;

    fn rule_bound(&self) -> usize {
        self.rule_bound()
    }

    fn body(&self, rule: RuleId) -> Body<'_> {
        self.body(rule)
    }
}

/// A finished build's grammar, read in place: the node arena and rule
/// table of a [`Sequitur`], without the state only pushing reads (the
/// digram index and the free-node list). Made by [`Sequitur::freeze`];
/// reads like the builder through [`GrammarView`], with the builder's
/// internal rule ids.
#[derive(Debug, Clone)]
pub struct FrozenGrammar {
    nodes: Vec<Node>,
    rules: Vec<RuleData>,
}

impl GrammarView for FrozenGrammar {
    type Body<'a> = Body<'a>;

    fn rule_bound(&self) -> usize {
        self.rules.len()
    }

    fn body(&self, rule: RuleId) -> Body<'_> {
        Body::of(&self.nodes, &self.rules, rule)
    }
}

/// Incremental SEQUITUR grammar builder.
///
/// Feed the input with [`push`](Sequitur::push), then call
/// [`into_grammar`](Sequitur::into_grammar) to obtain the final, immutable
/// [`Grammar`].
///
/// The digram index defaults to the in-tree seedless
/// [`FxBuildHasher`]: digram keys are simulator-generated integers (never
/// attacker-controlled), the index is probed on every pushed symbol, and
/// a seedless hash keeps index behavior identical across processes. The
/// hasher is a type parameter only so differential tests can pin the
/// grammar against a [`std::collections::hash_map::RandomState`] build —
/// the produced grammar never depends on hash order (see
/// [`with_hasher`](Sequitur::with_hasher)).
#[derive(Debug, Clone)]
pub struct Sequitur<H: BuildHasher = FxBuildHasher> {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    rules: Vec<RuleData>,
    index: DigramIndex<H>,
    input_len: u64,
}

impl Sequitur {
    /// Creates a builder with an empty root rule.
    pub fn new() -> Self {
        Self::with_hasher()
    }

    /// Creates a builder with node and digram-index capacity
    /// preallocated for an input of roughly `len` symbols.
    pub fn with_capacity(len: usize) -> Self {
        Self::build(len)
    }
}

impl<H: BuildHasher + Default> Default for Sequitur<H> {
    fn default() -> Self {
        Self::with_hasher()
    }
}

impl<H: BuildHasher + Default> Sequitur<H> {
    /// Creates a builder whose digram index hashes with `H`.
    ///
    /// The grammar SEQUITUR produces is a function of the input alone —
    /// the index only answers exact-match digram lookups, never drives
    /// iteration — so any two hashers must yield identical grammars.
    /// Differential tests instantiate this with `RandomState` to prove
    /// the default [`FxBuildHasher`] swap changed nothing.
    pub fn with_hasher() -> Self {
        Self::build(0)
    }

    fn build(len: usize) -> Self {
        let mut s = Sequitur {
            nodes: Vec::with_capacity(len + len / 2),
            free: Vec::new(),
            rules: Vec::new(),
            index: DigramIndex::with_capacity_and_hasher(len, H::default()),
            input_len: 0,
        };
        s.new_rule(); // rule 0 = root
        s
    }
}

impl<H: BuildHasher> Sequitur<H> {
    /// Number of symbols pushed so far.
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Current number of entries in the digram hash index.
    pub fn digram_index_len(&self) -> usize {
        self.index.len()
    }

    /// Bytes the digram index's slot table occupies (8 per slot).
    pub fn digram_index_bytes(&self) -> usize {
        self.index.bytes()
    }

    /// Rules ever created (including the root and rules later deleted
    /// by the utility constraint).
    pub fn rules_created(&self) -> usize {
        self.rules.len()
    }

    /// Rules currently alive (including the root).
    pub fn live_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.alive).count()
    }

    /// Size of the symbol-node arena, live and freed slots together —
    /// the builder's peak memory footprint in nodes.
    pub fn node_arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends one input symbol, restoring both grammar invariants.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is `2^62` or larger: the top two bits of a
    /// symbol word hold its tag.
    pub fn push(&mut self, symbol: u64) {
        assert!(
            symbol <= Sym::MAX_TERMINAL,
            "symbol {symbol:#x} overlaps the tag bits (max {:#x})",
            Sym::MAX_TERMINAL
        );
        self.input_len += 1;
        let node = self.alloc(Sym::terminal(symbol));
        let root_guard = self.rules[0].guard;
        let last = self.nodes[root_guard as usize].prev();
        self.insert_after(last, node);
        let prev = self.nodes[node as usize].prev();
        if prev != root_guard {
            self.check(prev);
        }
    }

    /// Appends every symbol of `input`.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, input: I) {
        for s in input {
            self.push(s);
        }
    }

    /// Consumes the builder and produces the final immutable grammar with
    /// contiguously renumbered rules (root first).
    pub fn into_grammar(self) -> Grammar {
        self.grammar()
    }

    /// Consumes the builder, keeping only what reading its grammar
    /// needs. Unlike [`into_grammar`](Self::into_grammar) it copies
    /// nothing, and it frees the digram index at once.
    pub fn freeze(self) -> FrozenGrammar {
        FrozenGrammar {
            nodes: self.nodes,
            rules: self.rules,
        }
    }

    /// Snapshots the current grammar without consuming the builder, with
    /// contiguously renumbered rules (root first).
    ///
    /// The snapshot over the first `n` pushed symbols is identical to
    /// `into_grammar()` on a fresh builder fed the same `n` symbols,
    /// because SEQUITUR is an online algorithm whose state depends only
    /// on the input prefix. Readers that need only a walk can skip the
    /// copy and read the builder in place with [`body`](Self::body).
    pub fn grammar(&self) -> Grammar {
        // Map live internal rule ids -> contiguous output ids, root first.
        let mut mapping: Vec<Option<RuleId>> = vec![None; self.rules.len()];
        let mut next = 0usize;
        for (i, r) in self.rules.iter().enumerate() {
            if r.alive {
                mapping[i] = Some(RuleId::new(next));
                next += 1;
            }
        }
        let mut bodies: Vec<Vec<GrammarSymbol>> = Vec::with_capacity(next);
        for (i, r) in self.rules.iter().enumerate() {
            if !r.alive {
                continue;
            }
            let body = self
                .body(RuleId::from_raw(i as u32))
                .map(|sym| match sym {
                    GrammarSymbol::Rule(rid) => {
                        GrammarSymbol::Rule(mapping[rid.index()].expect("reference to dead rule"))
                    }
                    terminal => terminal,
                })
                .collect();
            bodies.push(body);
            debug_assert_eq!(mapping[i], Some(RuleId::new(bodies.len() - 1)));
        }
        Grammar::from_bodies(bodies)
    }

    /// One past the largest builder-internal rule id, live or deleted:
    /// the length of a table indexed by the rule ids [`body`](Self::body)
    /// yields.
    pub fn rule_bound(&self) -> usize {
        self.rules.len()
    }

    /// Reads the body of a live rule in place, without copying the
    /// grammar. [`RuleId::ROOT`] is the root rule.
    ///
    /// The rule ids inside [`GrammarSymbol::Rule`] are the builder's
    /// internal ids: they are below [`rule_bound`](Self::rule_bound) and
    /// always name live rules, but they are not contiguous and differ
    /// from the ids of a [`grammar`](Self::grammar) snapshot. Use them
    /// only as indices and to call `body` again.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is at or past [`rule_bound`](Self::rule_bound);
    /// debug builds also panic if `rule` was deleted.
    pub fn body(&self, rule: RuleId) -> Body<'_> {
        Body::of(&self.nodes, &self.rules, rule)
    }

    // --- node & rule management ------------------------------------------

    fn alloc(&mut self, sym: Sym) -> NodeId {
        if let Some(r) = sym.rule_ref() {
            self.rules[r as usize].refcount += 1;
        }
        let node = Node {
            prev_bits: NIL,
            next: NIL,
            sym,
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&id| id < NIL)
                .expect("node arena overflow");
            self.nodes.push(node);
            id
        }
    }

    /// Returns `node` to the free list.
    fn free_node(&mut self, node: NodeId) {
        debug_assert!(
            !self.nodes[node as usize].indexed(),
            "freeing indexed node {node}"
        );
        self.nodes[node as usize].sym = Sym::FREED;
        self.free.push(node);
    }

    fn new_rule(&mut self) -> u32 {
        let rule_id = u32::try_from(self.rules.len()).expect("rule id overflow");
        let guard = self.alloc(Sym::guard(rule_id));
        // The guard closes the circular list on itself while the body is
        // empty.
        self.nodes[guard as usize].set_prev(guard);
        self.nodes[guard as usize].next = guard;
        self.rules.push(RuleData {
            guard,
            refcount: 0,
            alive: true,
        });
        rule_id
    }

    fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id as usize];
        debug_assert!(!n.sym.is_freed(), "access to freed node {id}");
        n
    }

    /// The digram key starting at `first`, or `None` if either symbol is a
    /// guard.
    fn digram_key(&self, first: NodeId) -> Option<DigramKey> {
        let n = self.node(first);
        if n.sym.is_guard() {
            return None;
        }
        let second = self.node(n.next).sym;
        if second.is_guard() {
            return None;
        }
        Some((n.sym, second))
    }

    /// Indexes the digram `key` at `node`, replacing any previous entry.
    fn index_insert(&mut self, (a, b): DigramKey, node: NodeId) {
        if let Some(old) = self.index.insert(a.0, b.0, node, &self.nodes[..]) {
            self.nodes[old as usize].set_indexed(false);
        }
        self.nodes[node as usize].set_indexed(true);
    }

    /// Removes the digram starting at `first` from the index, if the index
    /// entry points at `first`.
    fn delete_digram(&mut self, first: NodeId) {
        if !self.nodes[first as usize].indexed() {
            return;
        }
        let (a, b) = self.nodes.key(first);
        self.index.remove(a, b, first);
        self.nodes[first as usize].set_indexed(false);
    }

    /// Links `left -> right`, removing `left`'s old digram from the index
    /// and re-indexing overlapping digrams in runs of identical symbols.
    fn join(&mut self, left: NodeId, right: NodeId) {
        if self.nodes[left as usize].next != NIL {
            self.delete_digram(left);

            // Triple fix-ups (see canonical implementation): when digrams
            // overlap in a run of equal symbols only the later one is
            // indexed; on deletion of the later one, restore the earlier.
            let rp = self.nodes[right as usize].prev();
            let rn = self.nodes[right as usize].next;
            if rp != NIL && rn != NIL {
                let v = self.nodes[right as usize].sym;
                if !v.is_guard()
                    && self.nodes[rp as usize].sym == v
                    && self.nodes[rn as usize].sym == v
                {
                    self.index_insert((v, v), right);
                }
            }
            let lp = self.nodes[left as usize].prev();
            let ln = self.nodes[left as usize].next;
            if lp != NIL && ln != NIL {
                let v = self.nodes[left as usize].sym;
                if !v.is_guard()
                    && self.nodes[lp as usize].sym == v
                    && self.nodes[ln as usize].sym == v
                {
                    self.index_insert((v, v), lp);
                }
            }
        }
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].set_prev(left);
    }

    /// Inserts `new` immediately after `node`.
    fn insert_after(&mut self, node: NodeId, new: NodeId) {
        let next = self.nodes[node as usize].next;
        self.join(new, next);
        self.join(node, new);
    }

    /// Unlinks and frees `node` (canonical symbol destructor): relinks its
    /// neighbors, removes its digram from the index, and drops a rule
    /// reference if it was a non-terminal.
    fn delete_symbol(&mut self, node: NodeId) {
        let prev = self.nodes[node as usize].prev();
        let next = self.nodes[node as usize].next;
        self.join(prev, next);
        // Own digram removal uses the *old* neighbor, which `join` left
        // intact in this node's link fields.
        self.delete_digram(node);
        if let Some(r) = self.nodes[node as usize].sym.rule_ref() {
            self.rules[r as usize].refcount -= 1;
        }
        self.free_node(node);
    }

    /// Checks the digram starting at `first` against the index, performing a
    /// reduction if it already occurs elsewhere. Returns `true` if the
    /// digram was already in the index (at this or another position).
    fn check(&mut self, first: NodeId) -> bool {
        let Some((a, b)) = self.digram_key(first) else {
            return false;
        };
        let Some(found) = self.index.get_or_insert(a.0, b.0, first, &self.nodes[..]) else {
            self.nodes[first as usize].set_indexed(true);
            return false;
        };
        // Skip self-hits and overlapping occurrences (runs like "aaa",
        // where found's second symbol is our first).
        if found != first && self.nodes[found as usize].next != first {
            self.match_digrams(first, found);
        }
        true
    }

    /// Handles a repeated digram: `new_d` just formed, `found` is the
    /// indexed earlier occurrence.
    fn match_digrams(&mut self, new_d: NodeId, found: NodeId) {
        let found_prev = self.nodes[found as usize].prev();
        let found_next = self.nodes[found as usize].next;
        let found_next_next = self.nodes[found_next as usize].next;

        let rule_id;
        if let (Some(r1), Some(r2)) = (
            self.nodes[found_prev as usize].sym.guard_of(),
            self.nodes[found_next_next as usize].sym.guard_of(),
        ) {
            // `found`'s digram is the entire body of an existing rule:
            // reuse it.
            debug_assert_eq!(r1, r2, "rule body bounded by two different guards");
            rule_id = r1;
            self.substitute(new_d, rule_id);
        } else {
            // Create a new rule from the digram and substitute both
            // occurrences.
            rule_id = self.new_rule();
            let guard = self.rules[rule_id as usize].guard;
            let c1 = self.alloc(self.nodes[new_d as usize].sym);
            let second = self.nodes[new_d as usize].next;
            let second_sym = self.nodes[second as usize].sym;
            let last = self.nodes[guard as usize].prev();
            self.insert_after(last, c1);
            let c2 = self.alloc(second_sym);
            let last = self.nodes[guard as usize].prev();
            self.insert_after(last, c2);
            self.substitute(found, rule_id);
            self.substitute(new_d, rule_id);
            // Index the digram inside the new rule body.
            let first_body = self.nodes[guard as usize].next;
            if let Some(key) = self.digram_key(first_body) {
                self.index_insert(key, first_body);
            }
        }

        // Rule utility: if the first symbol of the (re)used rule is a
        // non-terminal whose rule is now referenced only once, inline it.
        if !self.rules[rule_id as usize].alive {
            return;
        }
        let guard = self.rules[rule_id as usize].guard;
        let first_body = self.nodes[guard as usize].next;
        if let Some(inner) = self.nodes[first_body as usize].sym.rule_ref() {
            if self.rules[inner as usize].refcount == 1 {
                self.expand(first_body);
            }
        }
    }

    /// Replaces the digram starting at `first` with a non-terminal for
    /// `rule`, then re-checks the digrams formed on either side.
    fn substitute(&mut self, first: NodeId, rule: u32) {
        let prev = self.nodes[first as usize].prev();
        let a = self.nodes[prev as usize].next;
        self.delete_symbol(a);
        let b = self.nodes[prev as usize].next;
        self.delete_symbol(b);
        let nt = self.alloc(Sym::rule(rule));
        self.insert_after(prev, nt);
        if !self.check(prev) {
            let pn = self.nodes[prev as usize].next;
            self.check(pn);
        }
    }

    /// Rule utility repair: inlines the single-use rule referenced by the
    /// non-terminal `node` into its surrounding body and deletes the rule.
    fn expand(&mut self, node: NodeId) {
        let rule = self.nodes[node as usize]
            .sym
            .rule_ref()
            .expect("expand on a symbol that is not a non-terminal");
        let left = self.nodes[node as usize].prev();
        let right = self.nodes[node as usize].next;
        let guard = self.rules[rule as usize].guard;
        let body_first = self.nodes[guard as usize].next;
        let body_last = self.nodes[guard as usize].prev();
        debug_assert_ne!(body_first, guard, "expanding an empty rule");

        // Remove the digram starting at `node`, splice the body in place of
        // `node`, and only then free `node` and the rule's guard (the joins
        // read through the old links, so the frees must come last).
        self.delete_digram(node);
        self.join(left, body_first);
        self.join(body_last, right);
        if let Some(key) = self.digram_key(body_last) {
            self.index_insert(key, body_last);
        }

        self.rules[rule as usize].refcount -= 1;
        debug_assert_eq!(self.rules[rule as usize].refcount, 0);
        self.free_node(node);
        self.free_node(guard);
        self.rules[rule as usize].alive = false;
    }

    // --- verification (testing aid) --------------------------------------

    /// Exhaustively verifies both SEQUITUR invariants plus index/link/
    /// refcount consistency.
    ///
    /// Intended for tests; cost is linear in grammar size.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn verify_invariants(&self) {
        let mut digrams_seen: FxHashMap<DigramKey, (usize, usize)> = FxHashMap::default();
        let mut refcounts: Vec<u32> = vec![0; self.rules.len()];

        for (rid, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            // Walk the body; verify links and collect digrams.
            let guard = rule.guard;
            assert!(
                self.nodes[guard as usize].sym.guard_of() == Some(rid as u32),
                "rule {rid}: guard symbol mismatch"
            );
            let mut cur = self.nodes[guard as usize].next;
            let mut pos = 0usize;
            let mut body_len = 0usize;
            while cur != guard {
                let n = &self.nodes[cur as usize];
                assert!(!n.sym.is_freed(), "rule {rid}: dead node {cur} in body");
                assert_eq!(
                    self.nodes[n.next as usize].prev(),
                    cur,
                    "rule {rid}: broken back-link at node {cur}"
                );
                if let Some(r) = n.sym.rule_ref() {
                    assert!(
                        self.rules[r as usize].alive,
                        "rule {rid}: reference to dead rule {r}"
                    );
                    refcounts[r as usize] += 1;
                }
                if let Some(key @ (a, b)) = self.digram_key(cur) {
                    if let Some(&(orid, opos)) = digrams_seen.get(&key) {
                        // Digram uniqueness allows overlapping repetitions
                        // within a run of identical symbols (aaa): adjacent
                        // positions in the same rule.
                        let overlapping = orid == rid && (pos == opos + 1);
                        assert!(
                            overlapping,
                            "digram uniqueness violated: {key:?} at rule {orid} pos {opos} \
                             and rule {rid} pos {pos}"
                        );
                    } else {
                        digrams_seen.insert(key, (rid, pos));
                    }
                    let entry = self.index.get(a.0, b.0, &self.nodes[..]);
                    assert!(
                        entry.is_some(),
                        "digram {key:?} (rule {rid} pos {pos}) missing from index"
                    );
                    assert_eq!(
                        n.indexed(),
                        entry == Some(cur),
                        "node {cur} (rule {rid} pos {pos}): indexed bit disagrees with the index"
                    );
                } else {
                    assert!(
                        !n.indexed(),
                        "node {cur} (rule {rid} pos {pos}) has no digram but its indexed bit is set"
                    );
                }
                cur = n.next;
                pos += 1;
                body_len += 1;
                assert!(
                    body_len <= self.nodes.len(),
                    "cycle without guard in rule {rid}"
                );
            }
            assert!(
                rid == 0 || body_len >= 2,
                "rule {rid} has body length {body_len} < 2"
            );
        }

        for (rid, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            assert_eq!(
                rule.refcount, refcounts[rid],
                "rule {rid}: stored refcount {} != actual {}",
                rule.refcount, refcounts[rid]
            );
            if rid != 0 {
                assert!(
                    rule.refcount >= 2,
                    "rule utility violated: rule {rid} referenced {} time(s)",
                    rule.refcount
                );
            }
        }

        // Every index entry must point at a live, indexed node and be found
        // under the digram read back from that node. The slots store no key,
        // so an entry whose node's digram has changed would be found under
        // the new digram's hash only by chance.
        for node in self.index.nodes() {
            let n = &self.nodes[node as usize];
            assert!(!n.sym.is_freed(), "index entry points at dead node {node}");
            assert!(
                n.indexed(),
                "index entry points at node {node} whose indexed bit is clear"
            );
            let (a, b) = self
                .digram_key(node)
                .unwrap_or_else(|| panic!("index entry points at node {node} without a digram"));
            assert_eq!(
                self.index.get(a.0, b.0, &self.nodes[..]),
                Some(node),
                "index entry at node {node} is not found under its digram {:?}",
                (a, b)
            );
        }
        assert_eq!(
            self.index.nodes().count(),
            self.index.len(),
            "index length disagrees with its occupied slots"
        );
        for &node in &self.free {
            assert!(
                !self.nodes[node as usize].indexed(),
                "freed node {node} has its indexed bit set"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(input: &[u64]) -> Grammar {
        let mut s = Sequitur::new();
        for &x in input {
            s.push(x);
            s.verify_invariants();
        }
        s.into_grammar()
    }

    #[test]
    fn empty_input() {
        let g = build(&[]);
        assert_eq!(g.reconstruct(), Vec::<u64>::new());
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn no_repetition() {
        let g = build(&[1, 2, 3, 4, 5]);
        assert_eq!(g.reconstruct(), vec![1, 2, 3, 4, 5]);
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn single_repeated_digram() {
        let g = build(&[1, 2, 7, 1, 2]);
        assert_eq!(g.reconstruct(), vec![1, 2, 7, 1, 2]);
        assert_eq!(g.rule_count(), 2);
    }

    #[test]
    fn repeated_triple_forms_hierarchy() {
        // "abcabc" -> root: A A, A -> a b c (via nested digram rules
        // collapsed by utility).
        let g = build(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(g.reconstruct(), vec![1, 2, 3, 1, 2, 3]);
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.expansion_len(RuleId::new(1)), 3);
    }

    #[test]
    fn run_of_identical_symbols() {
        for n in 2..=40 {
            let input = vec![9u64; n];
            let g = build(&input);
            assert_eq!(g.reconstruct(), input, "aaa-run length {n}");
        }
    }

    #[test]
    fn alternation() {
        let input: Vec<u64> = (0..40).map(|i| (i % 2) as u64).collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
    }

    #[test]
    fn canonical_paper_example() {
        // From Nevill-Manning & Witten: "abcdbcabcdbc".
        let input: Vec<u64> = "abcdbcabcdbc".bytes().map(u64::from).collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
        // Rules: root + "bc" + "a bc d bc" (exact count depends on utility
        // collapsing; reconstruction is the hard guarantee).
        assert!(g.rule_count() >= 3);
    }

    #[test]
    fn triple_overlap_stress() {
        // The comment in the canonical source cites "abbbabcbb".
        let input: Vec<u64> = "abbbabcbb".bytes().map(u64::from).collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
    }

    #[test]
    fn long_periodic_input() {
        let pattern = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let input: Vec<u64> = pattern.iter().cycle().take(800).copied().collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
        // High compression: few root symbols relative to input.
        assert!(g.rule_body(RuleId::ROOT).len() < 50);
    }

    #[test]
    fn size_accessors_track_construction() {
        let mut s = Sequitur::new();
        assert_eq!(s.digram_index_len(), 0);
        assert_eq!(s.rules_created(), 1);
        assert_eq!(s.live_rules(), 1);
        s.extend([1, 2, 7, 1, 2]);
        assert!(s.digram_index_len() >= 1);
        assert_eq!(s.rules_created(), 2);
        assert_eq!(s.live_rules(), 2);
        assert!(s.node_arena_len() >= 5);
    }

    #[test]
    fn nodes_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn symbols_round_trip_through_their_tags() {
        for v in [0, 1, u64::from(u32::MAX), Sym::MAX_TERMINAL] {
            let t = Sym::terminal(v);
            assert!(!t.is_guard() && !t.is_freed());
            assert_eq!((t.rule_ref(), t.guard_of(), t.0), (None, None, v));
        }
        for r in [0, 7, u32::MAX] {
            assert_eq!(Sym::rule(r).rule_ref(), Some(r));
            assert_eq!(Sym::rule(r).guard_of(), None);
            assert_eq!(Sym::guard(r).guard_of(), Some(r));
            assert_eq!(Sym::guard(r).rule_ref(), None);
        }
        assert!(Sym::FREED.is_freed());
        assert!(!Sym::FREED.is_guard());
        assert_eq!(Sym::FREED.rule_ref(), None);
    }

    #[test]
    fn largest_symbol_is_accepted() {
        let input = [Sym::MAX_TERMINAL, 0, Sym::MAX_TERMINAL, 0];
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
        assert_eq!(g.rule_count(), 2);
    }

    #[test]
    #[should_panic(expected = "tag bits")]
    fn symbol_in_the_tag_bits_is_rejected() {
        Sequitur::new().push(1 << 62);
    }

    #[test]
    fn default_builder_has_a_root_rule() {
        // A derived `Default` once built a builder without the root rule,
        // so the first push indexed past the end of the rule table.
        let mut s: Sequitur = Sequitur::default();
        s.extend([1, 2, 1, 2]);
        s.verify_invariants();
        assert_eq!(s.into_grammar().reconstruct(), vec![1, 2, 1, 2]);
        let mut sip = Sequitur::<std::collections::hash_map::RandomState>::default();
        sip.push(3);
        assert_eq!(sip.live_rules(), 1);
    }

    #[test]
    fn extend_matches_push() {
        let mut a = Sequitur::new();
        a.extend([1, 2, 1, 2, 3]);
        let mut b = Sequitur::new();
        for x in [1, 2, 1, 2, 3] {
            b.push(x);
        }
        assert_eq!(a.input_len(), b.input_len());
        assert_eq!(
            a.into_grammar().reconstruct(),
            b.into_grammar().reconstruct()
        );
    }

    /// Expands `rule` through the in-place body view.
    fn expand_live(s: &Sequitur, rule: RuleId, out: &mut Vec<u64>, reached: &mut [bool]) {
        for sym in s.body(rule) {
            match sym {
                GrammarSymbol::Terminal(t) => out.push(t),
                GrammarSymbol::Rule(r) => {
                    reached[r.index()] = true;
                    expand_live(s, r, out, reached);
                }
            }
        }
    }

    #[test]
    fn body_view_reads_the_live_grammar_in_place() {
        let pattern = [7u64, 3, 7, 3, 9, 7, 3, 1, 2, 1, 2, 9, 9, 9];
        let input: Vec<u64> = pattern.iter().cycle().take(150).copied().collect();
        let mut live = Sequitur::new();
        for (n, &sym) in input.iter().enumerate() {
            live.push(sym);
            let mut out = Vec::new();
            let mut reached = vec![false; live.rule_bound()];
            expand_live(&live, RuleId::ROOT, &mut out, &mut reached);
            assert_eq!(out, input[..=n], "prefix {n}");
            // Every live non-root rule is reachable from the root.
            let reached = reached.iter().filter(|&&r| r).count();
            assert_eq!(reached + 1, live.live_rules(), "prefix {n}");
            assert_eq!(live.rule_bound(), live.rules_created());
        }
        // The view and the snapshot agree on the root body's shape.
        let snap = live.grammar();
        let root: Vec<bool> = live
            .body(RuleId::ROOT)
            .map(|s| matches!(s, GrammarSymbol::Rule(_)))
            .collect();
        let want: Vec<bool> = snap
            .rule_body(RuleId::ROOT)
            .iter()
            .map(|s| matches!(s, GrammarSymbol::Rule(_)))
            .collect();
        assert_eq!(root, want);
    }

    #[test]
    fn live_snapshot_matches_fresh_builder_per_prefix() {
        // The serve-crate contract: grammar() over the first n symbols
        // equals into_grammar() of a fresh builder fed the same prefix.
        let pattern = [7u64, 3, 7, 3, 9, 7, 3, 1, 2, 1, 2];
        let input: Vec<u64> = pattern.iter().cycle().take(120).copied().collect();
        let mut live = Sequitur::new();
        for (n, &sym) in input.iter().enumerate() {
            live.push(sym);
            if n % 17 == 0 {
                let snap = live.grammar();
                let mut fresh = Sequitur::new();
                fresh.extend(input[..=n].iter().copied());
                let batch = fresh.into_grammar();
                assert_eq!(snap.reconstruct(), input[..=n]);
                assert_eq!(snap.rule_count(), batch.rule_count(), "prefix {n}");
                for r in 0..snap.rule_count() {
                    assert_eq!(
                        snap.rule_body(RuleId::new(r)),
                        batch.rule_body(RuleId::new(r)),
                        "prefix {n} rule {r}"
                    );
                }
            }
        }
        // And the final snapshot equals the consuming conversion.
        let snap = live.grammar();
        let whole = live.into_grammar();
        assert_eq!(snap.rule_count(), whole.rule_count());
        assert_eq!(snap.reconstruct(), whole.reconstruct());
    }
}
