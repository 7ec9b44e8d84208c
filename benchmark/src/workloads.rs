//! The five workloads. Each is a closed loop of solve requests —
//! "given values `A` on a pattern and `b`, return `x`" — issued by one
//! client that waits for every answer before sending the next.
//!
//! Patterns are workload parameters, like the matrix order: they come
//! from fixed generator seeds, because time per flop differs by ±7 %
//! between circuit patterns of the same generator parameters, which is
//! wider than the bound the end-to-end metrics must hold. `--seed`
//! draws everything else: the value sets, the right-hand sides and the
//! hot/cold request order.

use crate::adapter::{
    circuit_unsym, circuit_zero_diag, full_storage, lu_options, nd_laplacian, CacheConfig,
    CscMatrix, FactorService, LuWorkspace, Ordering, PlanCache, PrePivot, ServeRequest,
    SympilerCholesky, SympilerLu, SympilerOptions,
};
use crate::layers::BudgetKind;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::verify::{self, Case};
use std::sync::Arc;

/// Generator seed of every workload's first pattern.
pub const PATTERN_SEED: u64 = 1;
/// Generator seed of `serve_churn`'s first cold pattern.
const COLD_PATTERN_SEED: u64 = 1001;
/// Value sets per pattern on the refactor loops.
pub const REFACTOR_POOL: usize = 16;
const COLD_PATTERNS: usize = 64;
const HOT_PATTERNS: usize = 4;
const HOT_VALUE_SETS: usize = 4;
/// One request in every block of this many names a cold pattern.
pub const CHURN_BLOCK: usize = 10;
/// Edge of the SPD grid.
pub const SPD_GRID: usize = 16;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Requests after which the input sequence repeats; the timed
    /// window ends on a multiple of it so every run times the same mix.
    pub cycle: usize,
    /// Which layers make up one request, for the budget table.
    pub budget: BudgetKind,
    /// Set the workload up; the seed draws values, right-hand sides and
    /// request order.
    pub build: fn(u64) -> Result<Box<dyn Runner>, String>,
}

/// How the requests of a workload are answered, for the cross-check
/// and the layer probes.
pub enum Solver {
    Lu(SympilerOptions),
    Cholesky,
}

pub trait Runner {
    /// Answer request `i`, recording one span per call into a layer.
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<f64>, String>;
    /// The inputs of request `i` (after `request(i, …)` was issued).
    fn case(&self, i: usize) -> &Case;
    /// One case per distinct pattern the workload uses.
    fn pattern_cases(&self) -> Vec<&Case>;
    fn solver(&self) -> Solver;
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "refactor_dense",
        why: "heavy-fill circuit under COLAMD (fill 40x, 5.8e7 flops in ~3.5-wide panels): numeric refactor where the dense kernels and plan do all the work",
        cycle: REFACTOR_POOL,
        budget: BudgetKind::LuRefactor,
        build: |seed| Refactor::build(seed, circuit_unsym(1200, 4, 2, PATTERN_SEED)),
    },
    Spec {
        name: "refactor_sparse",
        why: "near-fill-free circuit (fill 1.24, 1.1e5 flops at n=20000): same entry point, but time is index walking, scatter/gather and allocation, not flops",
        cycle: REFACTOR_POOL,
        budget: BudgetKind::LuRefactor,
        build: |seed| Refactor::build(seed, circuit_unsym(20000, 1, 0, PATTERN_SEED)),
    },
    Spec {
        name: "spd_refactor",
        why: "16^3 Laplacian in nested-dissection order through compiled Cholesky: the paper's own kernel, wide separator supernodes, guards potrf/trsm/gemm and the AST path",
        cycle: REFACTOR_POOL,
        budget: BudgetKind::CholRefactor,
        build: Spd::build,
    },
    Spec {
        name: "cold_compile",
        why: "the pattern changes every request (64 zero-diagonal circuits, weighted matching + COLAMD, no cache): most of the request is graph inspection and plan packing",
        cycle: COLD_PATTERNS,
        budget: BudgetKind::LuCold,
        build: Cold::build,
    },
    Spec {
        name: "serve_churn",
        why: "FactorService with an 8-entry cache, 4 hot patterns and 10% cold requests that each miss, insert and evict: p50 is the hit path, the mean carries the compiles",
        cycle: CHURN_BLOCK,
        budget: BudgetKind::ServeHit,
        build: Serve::build,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A fresh value set on `base`'s pattern with a fresh right-hand side.
/// Diagonal entries grow and off-diagonal entries shrink, by up to
/// 10 %, so diagonally dominant inputs stay dominant (static pivoting
/// stays safe, SPD stays SPD).
fn draw_case(base: &CscMatrix, sym_lower: bool, rng: &mut Rng) -> Case {
    let mut a = base.clone();
    let n = a.n_cols();
    let col_ptr = a.col_ptr().to_vec();
    let row_idx = a.row_idx().to_vec();
    let values = a.values_mut();
    for j in 0..n {
        for p in col_ptr[j]..col_ptr[j + 1] {
            let u = 0.1 * rng.unit();
            values[p] *= if row_idx[p] == j { 1.0 + u } else { 1.0 - u };
        }
    }
    let b = (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect();
    Case { a, b, sym_lower }
}

fn draw_pool(base: &CscMatrix, sym_lower: bool, count: usize, rng: &mut Rng) -> Vec<Case> {
    (0..count)
        .map(|_| draw_case(base, sym_lower, rng))
        .collect()
}

/// `refactor_dense` / `refactor_sparse`: compile once, then
/// `factor_with` + `solve` per request.
struct Refactor {
    opts: SympilerOptions,
    lu: SympilerLu,
    ws: LuWorkspace,
    pool: Vec<Case>,
}

impl Refactor {
    fn build(seed: u64, base: CscMatrix) -> Result<Box<dyn Runner>, String> {
        let opts = lu_options(Ordering::Colamd, PrePivot::Off, 1);
        let pool = draw_pool(&base, false, REFACTOR_POOL, &mut Rng::new(seed));
        let lu = SympilerLu::compile(&base, &opts).map_err(|e| e.to_string())?;
        Ok(Box::new(Self {
            opts,
            lu,
            ws: LuWorkspace::new(),
            pool,
        }))
    }
}

impl Runner for Refactor {
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<f64>, String> {
        let case = &self.pool[i % self.pool.len()];
        let factor = tr
            .span("plan.factor", |_| {
                self.lu.factor_with(&case.a, &mut self.ws)
            })
            .map_err(|e| e.to_string())?;
        Ok(tr.span("plan.solve", |_| factor.solve(&case.b)))
    }

    fn case(&self, i: usize) -> &Case {
        &self.pool[i % self.pool.len()]
    }

    fn pattern_cases(&self) -> Vec<&Case> {
        vec![&self.pool[0]]
    }

    fn solver(&self) -> Solver {
        Solver::Lu(self.opts.clone())
    }
}

/// `spd_refactor`: `SympilerCholesky::compile` once, then `factor` +
/// `solve` per request.
struct Spd {
    chol: SympilerCholesky,
    pool: Vec<Case>,
}

impl Spd {
    fn build(seed: u64) -> Result<Box<dyn Runner>, String> {
        let base = nd_laplacian(SPD_GRID, PATTERN_SEED);
        let pool = draw_pool(&base, true, REFACTOR_POOL, &mut Rng::new(seed));
        let chol = SympilerCholesky::compile(&base, &SympilerOptions::default())
            .map_err(|e| e.to_string())?;
        Ok(Box::new(Self { chol, pool }))
    }
}

impl Runner for Spd {
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<f64>, String> {
        let case = &self.pool[i % self.pool.len()];
        let factor = tr
            .span("plan.factor", |_| self.chol.factor(&case.a))
            .map_err(|e| e.to_string())?;
        Ok(tr.span("plan.solve", |_| factor.solve(&case.b)))
    }

    fn case(&self, i: usize) -> &Case {
        &self.pool[i % self.pool.len()]
    }

    fn pattern_cases(&self) -> Vec<&Case> {
        vec![&self.pool[0]]
    }

    fn solver(&self) -> Solver {
        Solver::Cholesky
    }
}

/// `cold_compile`: `compile` + `factor` + `solve` per request, on a
/// pattern the previous request did not use, with no cache.
struct Cold {
    opts: SympilerOptions,
    patterns: Vec<Case>,
}

impl Cold {
    fn build(seed: u64) -> Result<Box<dyn Runner>, String> {
        let mut rng = Rng::new(seed);
        let patterns = (0..COLD_PATTERNS as u64)
            .map(|k| {
                let base = circuit_zero_diag(800, 4, 2, PATTERN_SEED + k);
                draw_case(&base, false, &mut rng)
            })
            .collect();
        Ok(Box::new(Self {
            opts: lu_options(Ordering::Colamd, PrePivot::WeightedMatching, 1),
            patterns,
        }))
    }
}

impl Runner for Cold {
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<f64>, String> {
        let case = &self.patterns[i % self.patterns.len()];
        let lu = tr
            .span("compile", |_| SympilerLu::compile(&case.a, &self.opts))
            .map_err(|e| e.to_string())?;
        let factor = tr
            .span("plan.factor", |_| lu.factor(&case.a))
            .map_err(|e| e.to_string())?;
        Ok(tr.span("plan.solve", |_| factor.solve(&case.b)))
    }

    fn case(&self, i: usize) -> &Case {
        &self.patterns[i % self.patterns.len()]
    }

    fn pattern_cases(&self) -> Vec<&Case> {
        self.patterns.iter().collect()
    }

    fn solver(&self) -> Solver {
        Solver::Lu(self.opts.clone())
    }
}

/// Which stored case a `serve_churn` request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Hot(usize),
    Cold(usize),
}

/// The seeded request order of `serve_churn`: every block of
/// `CHURN_BLOCK` requests holds exactly one cold request, at a drawn
/// position, so any whole number of blocks carries the same share of
/// misses. Cold requests walk the cold patterns round-robin (each one
/// was evicted long before it returns); hot requests draw one of the
/// hot value sets.
pub struct ChurnPlan {
    rng: Rng,
    next_cold: usize,
    n_hot: usize,
    n_cold: usize,
    slots: Vec<Slot>,
}

impl ChurnPlan {
    pub fn new(seed: u64, n_hot: usize, n_cold: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ 0xc4a2_11d7),
            next_cold: 0,
            n_hot,
            n_cold,
            slots: Vec::new(),
        }
    }

    pub fn slot(&mut self, i: usize) -> Slot {
        while self.slots.len() <= i {
            let cold_at = self.rng.below(CHURN_BLOCK);
            for k in 0..CHURN_BLOCK {
                let slot = if k == cold_at {
                    self.next_cold += 1;
                    Slot::Cold((self.next_cold - 1) % self.n_cold)
                } else {
                    Slot::Hot(self.rng.below(self.n_hot))
                };
                self.slots.push(slot);
            }
        }
        self.slots[i]
    }

    /// The slot of a request already drawn.
    pub fn drawn(&self, i: usize) -> Slot {
        self.slots[i]
    }
}

/// `serve_churn`: one client keeping one request in flight on a
/// one-worker `FactorService` over a small cache.
struct Serve {
    opts: SympilerOptions,
    service: FactorService,
    hot: Vec<Case>,
    cold: Vec<Case>,
    plan: ChurnPlan,
}

/// The cache `serve_churn` runs against: room for the hot patterns and
/// as many cold ones, bounded by count only.
pub const SERVE_CACHE: CacheConfig = CacheConfig {
    max_entries: 2 * HOT_PATTERNS,
    max_bytes: 0,
};

/// The stored cases of `serve_churn`: hot value sets (pattern-major)
/// and one case per cold pattern.
pub fn serve_cases(seed: u64, n_cold: usize) -> (Vec<Case>, Vec<Case>) {
    let mut rng = Rng::new(seed);
    let hot = (0..HOT_PATTERNS as u64)
        .flat_map(|i| {
            let base = circuit_unsym(8000, 1, 0, PATTERN_SEED + i);
            draw_pool(&base, false, HOT_VALUE_SETS, &mut rng)
        })
        .collect();
    let cold = (0..n_cold as u64)
        .map(|k| {
            let base = circuit_unsym(8000, 1, 0, COLD_PATTERN_SEED + k);
            draw_case(&base, false, &mut rng)
        })
        .collect();
    (hot, cold)
}

pub fn serve_options() -> SympilerOptions {
    lu_options(Ordering::Colamd, PrePivot::Off, 1)
}

pub fn serve_request(case: &Case, opts: &SympilerOptions) -> ServeRequest {
    ServeRequest {
        a: case.a.clone(),
        opts: opts.clone(),
        rhs: vec![case.b.clone()],
    }
}

impl Serve {
    fn build(seed: u64) -> Result<Box<dyn Runner>, String> {
        let opts = serve_options();
        let (hot, cold) = serve_cases(seed, COLD_PATTERNS);
        let service = FactorService::new(1, Arc::new(PlanCache::new(SERVE_CACHE)));
        // Warm the cache: the hot plans are resident before the window.
        for case in hot.iter().step_by(HOT_VALUE_SETS) {
            service
                .call(serve_request(case, &opts))
                .map_err(|e| e.to_string())?;
        }
        let plan = ChurnPlan::new(seed, hot.len(), cold.len());
        Ok(Box::new(Self {
            opts,
            service,
            hot,
            cold,
            plan,
        }))
    }

    fn stored(&self, slot: Slot) -> &Case {
        match slot {
            Slot::Hot(k) => &self.hot[k],
            Slot::Cold(k) => &self.cold[k],
        }
    }
}

impl Runner for Serve {
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<f64>, String> {
        let slot = self.plan.slot(i);
        let (label, case) = match slot {
            Slot::Hot(_) => ("serve.hit", self.stored(slot)),
            Slot::Cold(_) => ("serve.miss", self.stored(slot)),
        };
        tr.span(label, |tr| {
            let req = tr.span("serve.clone", |_| serve_request(case, &self.opts));
            let ticket = tr.span("serve.submit", |_| self.service.submit(req));
            let mut response = tr
                .span("serve.wait", |_| ticket.wait())
                .map_err(|e| e.to_string())?;
            response
                .solutions
                .pop()
                .ok_or_else(|| "response carries no solution".to_string())
        })
    }

    fn case(&self, i: usize) -> &Case {
        self.stored(self.plan.drawn(i))
    }

    fn pattern_cases(&self) -> Vec<&Case> {
        self.hot
            .iter()
            .step_by(HOT_VALUE_SETS)
            .chain(&self.cold)
            .collect()
    }

    fn solver(&self) -> Solver {
        Solver::Lu(self.opts.clone())
    }
}

/// Cross-check one case of every `every`th pattern against the coupled
/// baselines; how many were checked and how many disagreed or errored.
pub fn cross_check(runner: &dyn Runner, every: usize) -> (usize, usize) {
    let solver = runner.solver();
    let cases: Vec<&Case> = runner.pattern_cases().into_iter().step_by(every).collect();
    let disagreed = cases
        .iter()
        .filter(|case| {
            let diff = match &solver {
                Solver::Lu(opts) => verify::cross_check_lu(case, opts),
                Solver::Cholesky => verify::cross_check_chol(case),
            };
            match diff {
                Ok(d) if d <= verify::CROSS_CHECK_TOL => false,
                Ok(d) => {
                    eprintln!("cross-check: relative difference {d:e} from the coupled baseline");
                    true
                }
                Err(e) => {
                    eprintln!("cross-check: {e}");
                    true
                }
            }
        })
        .count();
    (cases.len(), disagreed)
}

/// The matrix the LU-side layer probes factor: the workload's own
/// input, in full storage.
pub fn lu_probe_input(runner: &dyn Runner) -> (CscMatrix, SympilerOptions) {
    let case = runner.pattern_cases()[0];
    match runner.solver() {
        Solver::Lu(opts) => (case.a.clone(), opts),
        Solver::Cholesky => (
            full_storage(&case.a),
            lu_options(Ordering::Natural, PrePivot::Off, 1),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_churn_plan_repeats_for_a_seed_and_walks_cold_patterns_in_turn() {
        let (mut p, mut q) = (ChurnPlan::new(3, 16, 64), ChurnPlan::new(3, 16, 64));
        let slots: Vec<Slot> = (0..2000).map(|i| p.slot(i)).collect();
        // Drawn out of order and twice: still the same sequence.
        assert_eq!(q.slot(1999), slots[1999]);
        assert!((0..2000).all(|i| q.slot(i) == slots[i] && q.drawn(i) == slots[i]));
        let cold: Vec<usize> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Cold(k) => Some(*k),
                Slot::Hot(_) => None,
            })
            .collect();
        assert!(cold.iter().enumerate().all(|(n, &k)| k == n % 64));
        for block in slots.chunks(CHURN_BLOCK) {
            let n_cold = block.iter().filter(|s| matches!(s, Slot::Cold(_))).count();
            assert_eq!(n_cold, 1, "one cold request per block");
        }
        assert!(slots.iter().all(|s| !matches!(s, Slot::Hot(k) if *k >= 16)));
        let other: Vec<Slot> = {
            let mut r = ChurnPlan::new(4, 16, 64);
            (0..2000).map(|i| r.slot(i)).collect()
        };
        assert_ne!(other, slots);
    }

    #[test]
    fn a_seed_fixes_the_values_and_leaves_the_pattern_alone() {
        let base = circuit_unsym(60, 3, 1, 1);
        let draw = |seed| draw_pool(&base, false, 3, &mut Rng::new(seed));
        let (a, b, c) = (draw(1), draw(1), draw(2));
        for k in 0..3 {
            assert_eq!(a[k].a.values(), b[k].a.values());
            assert_eq!(a[k].b, b[k].b);
            assert!(a[k].a.same_pattern(&base) && c[k].a.same_pattern(&base));
        }
        assert_ne!(a[0].a.values(), c[0].a.values());
        assert_ne!(a[0].a.values(), a[1].a.values());
        // Dominance is kept: the diagonal never shrinks, nothing else grows.
        for j in 0..60 {
            for ((i, v), (_, v0)) in a[0].a.col_iter(j).zip(base.col_iter(j)) {
                assert!(if i == j {
                    v.abs() >= v0.abs()
                } else {
                    v.abs() <= v0.abs()
                });
            }
        }
    }

    #[test]
    fn every_workload_has_a_one_line_reason_and_a_unique_name() {
        for (k, s) in SPECS.iter().enumerate() {
            assert!(!s.why.contains('\n') && s.why.len() <= 200, "{}", s.name);
            assert!(s.cycle >= 1);
            assert!(SPECS[..k].iter().all(|t| t.name != s.name));
            assert!(spec(s.name).is_some());
        }
        assert!(spec("nope").is_none());
    }
}
