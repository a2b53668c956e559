//! The seeded ad-hoc predicate stream of the `adhoc_shared` workload.
//!
//! Each predicate has 1–4 clauses over the five UDF columns, one atom
//! per column: `=` / `!=` on a declared categorical value, or a speed
//! comparison or range inside the generator's speed span. Atoms combine
//! with `And` / `Or`, sometimes nested one level. Targets are drawn from
//! [`TARGETS`]. A stream never repeats a plan-cache key, so every request
//! misses the plan cache. [`AdhocStream::reseed`] switches the draws to
//! another seed without forgetting the keys already drawn, so a fixed
//! prefix (the verification set) can precede a seeded continuation.

use std::collections::HashSet;

use pp_core::catalog::CatalogEpoch;
use pp_data::traffic::{INTERSECTIONS, VEH_COLORS, VEH_TYPES};
use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_server::CacheKey;

/// Accuracy targets an ad-hoc request draws from.
pub const TARGETS: [f64; 3] = [0.9, 0.95, 0.99];
/// Speed thresholds lie on a half-unit grid inside this span, which is
/// the span the generator draws speeds from.
pub const SPEED_SPAN: (f64, f64) = (20.0, 80.0);
/// Most clauses one predicate carries.
pub const MAX_CLAUSES: usize = 4;

/// splitmix64: a tiny seeded generator, so the stream depends on nothing
/// but its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The ad-hoc request stream for one seed.
#[derive(Debug)]
pub struct AdhocStream {
    rng: SplitMix64,
    seen: HashSet<CacheKey>,
}

impl AdhocStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        AdhocStream {
            rng: SplitMix64::new(seed ^ 0xAD0C_5EED),
            seen: HashSet::new(),
        }
    }

    /// Continues the stream with draws from `seed`, still never
    /// repeating a key drawn before.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed ^ 0xAD0C_5EED);
    }

    /// The next `(predicate, accuracy target)`, whose plan-cache key no
    /// earlier request of this stream had.
    pub fn next_request(&mut self) -> (Predicate, f64) {
        loop {
            let predicate = self.draw_predicate();
            let target = TARGETS[self.rng.below(TARGETS.len())];
            if self.seen.insert(CacheKey::new(
                "traffic",
                &predicate,
                target,
                CatalogEpoch(0),
            )) {
                return (predicate, target);
            }
        }
    }

    fn draw_predicate(&mut self) -> Predicate {
        let mut budget = 1 + self.rng.below(MAX_CLAUSES);
        let mut columns = vec!["vehType", "vehColor", "speed", "fromI", "toI"];
        let mut atoms = Vec::new();
        while budget > 0 && !columns.is_empty() {
            let column = columns.swap_remove(self.rng.below(columns.len()));
            let atom = match column {
                "vehType" => self.categorical(column, &VEH_TYPES),
                "vehColor" => self.categorical(column, &VEH_COLORS),
                "fromI" | "toI" => self.categorical(column, &INTERSECTIONS),
                _ => self.speed(budget),
            };
            budget -= atom.clauses().len();
            atoms.push(atom);
        }
        self.combine(atoms)
    }

    fn categorical(&mut self, column: &str, domain: &[&str]) -> Predicate {
        let op = if self.rng.coin() {
            CompareOp::Eq
        } else {
            CompareOp::Ne
        };
        Predicate::from(Clause::new(column, op, self.rng.pick(domain)))
    }

    /// A speed comparison, or (with at least two clauses of budget left)
    /// sometimes a half-open range `lo <= speed < hi`.
    fn speed(&mut self, budget: usize) -> Predicate {
        let steps = ((SPEED_SPAN.1 - SPEED_SPAN.0) * 2.0) as usize;
        let mut threshold = || SPEED_SPAN.0 + self.rng.below(steps + 1) as f64 / 2.0;
        let (a, b) = (threshold(), threshold());
        if budget >= 2 && a != b && self.rng.coin() {
            let (lo, hi) = (a.min(b), a.max(b));
            return Predicate::and(
                Predicate::from(Clause::new("speed", CompareOp::Ge, lo)),
                Predicate::from(Clause::new("speed", CompareOp::Lt, hi)),
            );
        }
        let ops = [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge];
        Predicate::from(Clause::new("speed", ops[self.rng.below(ops.len())], a))
    }

    fn combine(&mut self, mut atoms: Vec<Predicate>) -> Predicate {
        if atoms.len() == 1 {
            return atoms.pop().expect("one atom");
        }
        let and = self.rng.coin();
        let join = |and: bool, parts: Vec<Predicate>| {
            if and {
                Predicate::And(parts)
            } else {
                Predicate::Or(parts)
            }
        };
        if atoms.len() >= 3 && self.rng.coin() {
            let tail = atoms.split_off(atoms.len() - 2);
            atoms.push(join(!and, tail));
        }
        join(and, atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::traffic::TrafficDataset;
    use pp_engine::value::Value;

    fn draw(seed: u64, n: usize) -> Vec<(String, f64)> {
        let mut s = AdhocStream::new(seed);
        (0..n)
            .map(|_| {
                let (p, a) = s.next_request();
                (p.to_string(), a)
            })
            .collect()
    }

    #[test]
    fn the_stream_is_a_function_of_its_seed() {
        assert_eq!(draw(7, 300), draw(7, 300));
        assert_ne!(draw(7, 300), draw(8, 300));
    }

    #[test]
    fn the_stream_never_repeats_a_cache_key() {
        let mut s = AdhocStream::new(3);
        let mut keys = HashSet::new();
        for i in 0..5_000 {
            if i == 100 {
                // A reseed to the same seed replays the same draws, all
                // of which must now be skipped.
                s.reseed(3);
            }
            let (p, a) = s.next_request();
            assert!(keys.insert(CacheKey::new("traffic", &p, a, CatalogEpoch(9))));
        }
    }

    #[test]
    fn every_predicate_stays_inside_the_declared_domains() {
        let domains = TrafficDataset::column_domains();
        let mut s = AdhocStream::new(11);
        let mut shapes = HashSet::new();
        for _ in 0..3_000 {
            let (p, a) = s.next_request();
            assert!(TARGETS.contains(&a));
            let clauses = p.clauses();
            assert!((1..=MAX_CLAUSES).contains(&clauses.len()), "{p}");
            for c in &clauses {
                match &c.value {
                    Value::Float(v) => {
                        assert_eq!(c.column, "speed");
                        assert!((SPEED_SPAN.0..=SPEED_SPAN.1).contains(v), "{p}");
                        assert_eq!((v * 2.0).fract(), 0.0, "{p}");
                    }
                    Value::Str(value) => {
                        let (_, values) = domains
                            .iter()
                            .find(|(col, _)| *col == c.column)
                            .unwrap_or_else(|| panic!("undeclared column in {p}"));
                        assert!(
                            values.iter().any(|v| v.as_str().ok() == Some(&**value)),
                            "{p}"
                        );
                        assert!(matches!(c.op, CompareOp::Eq | CompareOp::Ne), "{p}");
                    }
                    other => panic!("unexpected literal {other:?} in {p}"),
                }
            }
            // One atom per column: a column other than speed appears once.
            for col in ["vehType", "vehColor", "fromI", "toI"] {
                assert!(
                    clauses.iter().filter(|c| c.column == col).count() <= 1,
                    "{p}"
                );
            }
            shapes.insert(match &p {
                Predicate::Clause(_) => "clause",
                Predicate::And(_) => "and",
                Predicate::Or(_) => "or",
                _ => "other",
            });
        }
        assert_eq!(shapes.len(), 3, "{shapes:?}");
    }
}
