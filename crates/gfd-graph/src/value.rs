//! Attribute values carried by graph nodes, and the global interning
//! table that maps every value to a dense [`ValueId`] so the matching
//! hot path compares raw `u32`s instead of `Arc<str>` contents.

use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// A constant attribute value.
///
/// GFD literals compare values for equality only, so the variants just need
/// `Eq + Hash`; `Ord` is provided to keep reports and model extraction
/// deterministic.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer, e.g. `x.age = 42`.
    Int(i64),
    /// Boolean, e.g. `x.verified = true`.
    Bool(bool),
    /// Interned string; cheap to clone.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns the string contents if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A short type tag used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}

// ---------------------------------------------------------------------------
// Interned value ids
// ---------------------------------------------------------------------------

/// Tag stored in the top two bits of a [`ValueId`].
const TAG_SHIFT: u32 = 30;
/// Payload mask: low 30 bits.
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
/// Inline small integer (payload is the value biased by [`INT_BIAS`]).
const TAG_INT: u32 = 0;
/// Boolean (payload 0 = false, 1 = true).
const TAG_BOOL: u32 = 1;
/// Interned string (payload indexes the global string table).
const TAG_STR: u32 = 2;
/// Out-of-range integer (payload indexes the global big-int table).
const TAG_BIG: u32 = 3;
/// Bias for inline integers: payload = value + BIAS, so payload order
/// equals numeric order for the whole inline range.
const INT_BIAS: i64 = 1 << 29;

/// A dedup-interned attribute value, packed into a `u32`.
///
/// Layout: the top two bits are a type tag, the low 30 bits a payload.
/// Small integers in `[-2^29, 2^29)` and booleans are encoded inline
/// (no table access at all); strings and out-of-range integers index
/// append-only global tables (see [`ValueTable`]). Interning dedups, so
/// **id equality is value equality** and `==`/`Hash` are raw `u32` ops —
/// this is the whole point: every hot-path literal check becomes one
/// integer compare.
///
/// `Ord` is *semantic*: it resolves through the table when needed so
/// that sorting ids yields exactly the order the boundary [`Value`]
/// type defines (ints numerically, then bools, then strings
/// lexicographically). Keeps reports, model extraction and violation
/// fingerprints byte-identical to the pre-interning pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// Sentinel for "no value" in columnar attribute storage. Never a
    /// valid interned value (the big-int table refuses its payload).
    pub const NONE: ValueId = ValueId(u32::MAX);

    /// Intern `v` and return its id. The main constructor in tests and
    /// boundary code: `ValueId::of("ann")`, `ValueId::of(42i64)`.
    pub fn of(v: impl Into<Value>) -> ValueId {
        ValueTable::intern(&v.into())
    }

    /// Is this the missing-value sentinel?
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// Is this a real interned value (not [`ValueId::NONE`])?
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u32::MAX
    }

    /// The raw packed representation (tag + payload).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    fn tag(self) -> u32 {
        self.0 >> TAG_SHIFT
    }

    #[inline]
    fn payload(self) -> u32 {
        self.0 & PAYLOAD_MASK
    }

    /// Resolve back to an owned [`Value`]. Boundary-only: rendering,
    /// serialization, model extraction. Panics on [`ValueId::NONE`].
    pub fn resolve(self) -> Value {
        assert!(!self.is_none(), "cannot resolve ValueId::NONE");
        match self.tag() {
            TAG_INT => Value::Int(i64::from(self.payload()) - INT_BIAS),
            TAG_BOOL => Value::Bool(self.payload() != 0),
            TAG_STR => Value::Str(ValueTable::resolve_str(self.payload())),
            _ => Value::Int(ValueTable::resolve_big(self.payload())),
        }
    }

    /// The integer, if this id encodes one (inline or big-table).
    pub fn as_int(self) -> Option<i64> {
        match self.tag() {
            TAG_INT => Some(i64::from(self.payload()) - INT_BIAS),
            TAG_BIG if !self.is_none() => Some(ValueTable::resolve_big(self.payload())),
            _ => None,
        }
    }

    /// The string contents, if this id encodes a string.
    pub fn as_str(self) -> Option<Arc<str>> {
        match self.tag() {
            TAG_STR => Some(ValueTable::resolve_str(self.payload())),
            _ => None,
        }
    }

    /// A short type tag used in error messages.
    pub fn type_name(self) -> &'static str {
        match self.tag() {
            TAG_INT | TAG_BIG => "int",
            TAG_BOOL => "bool",
            _ => "str",
        }
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "<none>")
        } else {
            write!(f, "{:?}", self.resolve())
        }
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "<none>")
        } else {
            write!(f, "{}", self.resolve())
        }
    }
}

impl PartialOrd for ValueId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        // Inline ints order by payload (the bias is monotone).
        if self.tag() == TAG_INT && other.tag() == TAG_INT {
            return self.0.cmp(&other.0);
        }
        self.resolve().cmp(&other.resolve())
    }
}

/// The global value-interning table.
///
/// Process-wide and append-only: once a value has an id, that id never
/// changes, so chase workers can clone equivalence-relation snapshots
/// freely and ids stay consistent across threads. All interning happens
/// at parse/ingest/rule-construction time — the matching hot path only
/// compares ids and never takes the lock.
pub struct ValueTable;

#[derive(Default)]
struct ValueTableInner {
    strs: Vec<Arc<str>>,
    str_ids: FxHashMap<Arc<str>, u32>,
    bigs: Vec<i64>,
    big_ids: FxHashMap<i64, u32>,
}

fn table() -> &'static RwLock<ValueTableInner> {
    static TABLE: OnceLock<RwLock<ValueTableInner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(ValueTableInner::default()))
}

impl ValueTable {
    /// Intern a value.
    pub fn intern(v: &Value) -> ValueId {
        match v {
            Value::Int(i) => Self::intern_int(*i),
            Value::Bool(b) => Self::intern_bool(*b),
            Value::Str(s) => Self::intern_str(s),
        }
    }

    /// Intern an integer. Small ints encode inline without touching the
    /// table; out-of-range ints go to the big-int side table.
    pub fn intern_int(i: i64) -> ValueId {
        if (-INT_BIAS..INT_BIAS).contains(&i) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            return ValueId((i + INT_BIAS) as u32);
        }
        {
            let t = table().read().expect("value table poisoned");
            if let Some(&idx) = t.big_ids.get(&i) {
                return ValueId((TAG_BIG << TAG_SHIFT) | idx);
            }
        }
        let mut t = table().write().expect("value table poisoned");
        if let Some(&idx) = t.big_ids.get(&i) {
            return ValueId((TAG_BIG << TAG_SHIFT) | idx);
        }
        let idx = u32::try_from(t.bigs.len()).expect("big-int table overflow");
        assert!(idx < PAYLOAD_MASK, "big-int table overflow");
        t.bigs.push(i);
        t.big_ids.insert(i, idx);
        ValueId((TAG_BIG << TAG_SHIFT) | idx)
    }

    /// Intern a boolean (inline, no table access).
    #[inline]
    pub fn intern_bool(b: bool) -> ValueId {
        ValueId((TAG_BOOL << TAG_SHIFT) | u32::from(b))
    }

    /// Intern a string. Repeated occurrences share one table entry (and
    /// one `Arc<str>` allocation) — this is the ingest-dedup fix.
    pub fn intern_str(s: &str) -> ValueId {
        {
            let t = table().read().expect("value table poisoned");
            if let Some(&idx) = t.str_ids.get(s) {
                return ValueId((TAG_STR << TAG_SHIFT) | idx);
            }
        }
        let mut t = table().write().expect("value table poisoned");
        if let Some(&idx) = t.str_ids.get(s) {
            return ValueId((TAG_STR << TAG_SHIFT) | idx);
        }
        let idx = u32::try_from(t.strs.len()).expect("string table overflow");
        assert!(idx < PAYLOAD_MASK, "string table overflow");
        let arc: Arc<str> = Arc::from(s);
        t.strs.push(arc.clone());
        t.str_ids.insert(arc, idx);
        ValueId((TAG_STR << TAG_SHIFT) | idx)
    }

    /// Intern a string that is already an `Arc<str>`, reusing the
    /// allocation if it becomes the table entry.
    pub fn intern_arc(s: &Arc<str>) -> ValueId {
        {
            let t = table().read().expect("value table poisoned");
            if let Some(&idx) = t.str_ids.get(&**s) {
                return ValueId((TAG_STR << TAG_SHIFT) | idx);
            }
        }
        let mut t = table().write().expect("value table poisoned");
        if let Some(&idx) = t.str_ids.get(&**s) {
            return ValueId((TAG_STR << TAG_SHIFT) | idx);
        }
        let idx = u32::try_from(t.strs.len()).expect("string table overflow");
        assert!(idx < PAYLOAD_MASK, "string table overflow");
        t.strs.push(s.clone());
        t.str_ids.insert(s.clone(), idx);
        ValueId((TAG_STR << TAG_SHIFT) | idx)
    }

    /// Look up a string without interning it.
    pub fn lookup_str(s: &str) -> Option<ValueId> {
        let t = table().read().expect("value table poisoned");
        t.str_ids
            .get(s)
            .map(|&idx| ValueId((TAG_STR << TAG_SHIFT) | idx))
    }

    /// Number of distinct strings interned so far (regression hook for
    /// the ingest-dedup tests).
    pub fn str_count() -> usize {
        table().read().expect("value table poisoned").strs.len()
    }

    fn resolve_str(idx: u32) -> Arc<str> {
        table().read().expect("value table poisoned").strs[idx as usize].clone()
    }

    fn resolve_big(idx: u32) -> i64 {
        table().read().expect("value table poisoned").bigs[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_content() {
        assert_eq!(Value::str("a"), Value::from("a"));
        assert_ne!(Value::str("a"), Value::str("b"));
        assert_eq!(Value::int(3), Value::from(3i64));
        assert_ne!(Value::Int(0), Value::Bool(false));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(format!("{:?}", Value::str("hi")), "\"hi\"");
        assert_eq!(Value::int(-4).to_string(), "-4");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::int(9).as_int(), Some(9));
        assert_eq!(Value::int(9).as_str(), None);
        assert_eq!(Value::Bool(true).type_name(), "bool");
    }

    #[test]
    fn value_ids_dedup_and_roundtrip() {
        let a = ValueId::of("vt-roundtrip-α");
        let b = ValueId::of("vt-roundtrip-α");
        assert_eq!(a, b);
        assert_eq!(a.resolve(), Value::str("vt-roundtrip-α"));
        assert_ne!(a, ValueId::of("vt-roundtrip-β"));
        assert_eq!(ValueId::of(42i64).resolve(), Value::int(42));
        assert_eq!(ValueId::of(true).resolve(), Value::Bool(true));
        assert_eq!(ValueId::of(""), ValueId::of(String::new()));
    }

    #[test]
    fn small_ints_and_bools_are_inline() {
        // Inline encodings never touch the table: distinct values,
        // distinct ids, same id for same value, payload order = value
        // order.
        assert_eq!(ValueId::of(0i64).as_int(), Some(0));
        assert_eq!(ValueId::of(-7i64).as_int(), Some(-7));
        assert!(ValueId::of(-1i64) < ValueId::of(0i64));
        assert!(ValueId::of(0i64) < ValueId::of(1i64));
        assert_ne!(ValueId::of(0i64), ValueId::of(false));
        // Out-of-range ints round-trip through the big table.
        let big = i64::MAX - 3;
        assert_eq!(ValueId::of(big).as_int(), Some(big));
        assert_eq!(ValueId::of(big), ValueId::of(big));
    }

    #[test]
    fn id_ordering_matches_value_ordering() {
        let mut vals = vec![
            Value::str("vt-ord-b"),
            Value::int(2),
            Value::int(i64::MIN),
            Value::Bool(false),
            Value::str("vt-ord-a"),
            Value::int(-1),
            Value::Bool(true),
            Value::str(""),
        ];
        let mut ids: Vec<ValueId> = vals.iter().map(ValueTable::intern).collect();
        vals.sort();
        ids.sort();
        let resolved: Vec<Value> = ids.iter().map(|id| id.resolve()).collect();
        assert_eq!(resolved, vals);
    }

    #[test]
    fn id_debug_display_match_value() {
        for v in [
            Value::str("hi"),
            Value::int(-4),
            Value::Bool(true),
            Value::int(1 << 40),
        ] {
            let id = ValueTable::intern(&v);
            assert_eq!(format!("{id:?}"), format!("{v:?}"));
            assert_eq!(format!("{id}"), format!("{v}"));
        }
        assert_eq!(format!("{:?}", ValueId::NONE), "<none>");
    }

    #[test]
    fn none_is_never_a_valid_value() {
        assert!(ValueId::NONE.is_none());
        assert!(!ValueId::of(0i64).is_none());
        assert_eq!(ValueId::NONE.as_int(), None);
        assert_eq!(ValueId::NONE.as_str(), None);
    }

    #[test]
    fn interning_is_idempotent_under_contention() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| ValueId::of(format!("vt-contend-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<ValueId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in &results[1..] {
            assert_eq!(*w, results[0]);
        }
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut vs = vec![
            Value::str("b"),
            Value::int(2),
            Value::str("a"),
            Value::int(1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::int(1),
                Value::int(2),
                Value::str("a"),
                Value::str("b")
            ]
        );
    }
}
