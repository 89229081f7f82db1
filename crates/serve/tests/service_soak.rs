//! Soak of the solve service under faults: concurrent clients, injected
//! task panics, a matrix whose factorization overflows, and deadlines —
//! the daemon must never die, never serve a poisoned cache entry, and
//! reject overload with typed errors.

use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_rt::{FaultPlan, MemoryBudget};
use dagfact_serve::{JobError, JobSpec, ServeConfig, Service, ServiceStats};
use dagfact_sparse::gen::{grid_laplacian_2d, grid_laplacian_3d, shifted_laplacian_3d};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::Arc;
use std::time::Duration;

/// Render a matrix as an inline job-spec source (small matrices only).
fn inline_of(a: &CscMatrix<f64>) -> String {
    let p = a.pattern();
    let mut s = format!("inline={}:", a.nrows());
    let mut first = true;
    for j in 0..a.ncols() {
        for (k, &i) in p.col(j).iter().enumerate() {
            let v = a.values()[p.colptr()[j] + k];
            if !first {
                s.push(';');
            }
            first = false;
            s.push_str(&format!("{i},{j},{v}"));
        }
    }
    s
}

/// `a` with its first off-diagonal pair raised to 1e300: every value is
/// finite (the job parser accepts no other), but the Cholesky
/// factorization overflows — a later pivot `a_jj − l²` with `l ≈ 5e299` —
/// and no static-pivot threshold changes that.
fn overflowing(a: &CscMatrix<f64>) -> CscMatrix<f64> {
    let j = (0..a.ncols())
        .find(|&j| a.col_rows(j).iter().any(|&i| i != j))
        .expect("an off-diagonal entry");
    let i = *a.col_rows(j).iter().find(|&&i| i != j).expect("an off-diagonal entry");
    let mut values = a.values().to_vec();
    for (r, c) in [(i, j), (j, i)] {
        let k = a.col_rows(c).iter().position(|&x| x == r).expect("symmetric pattern");
        values[a.pattern().colptr()[c] + k] = 1e300;
    }
    CscMatrix::new(a.pattern().clone(), values)
}

/// Correctness oracle: `x` must solve `A·x = A·1` to refinement
/// accuracy, i.e. be the all-ones vector. A contaminated cache entry
/// (wrong matrix's factors, partially-filled factors) cannot pass this.
fn assert_ones(x: &[f64], label: &str) {
    for (i, v) in x.iter().enumerate() {
        assert!(
            (v - 1.0).abs() < 1e-6,
            "{label}: x[{i}] = {v}, expected 1.0 — cross-request contamination?"
        );
    }
}

#[test]
fn soak_concurrent_chaos_no_contamination() {
    // Three distinct problems so cache keys interleave: a 2D grid whose
    // factorization overflows, an SPD 3D grid and an indefinite problem
    // under LDLᵀ, so the only legitimate failures are the overflow and
    // the injected panics.
    let problems: Vec<(CscMatrix<f64>, FactoKind, &str)> = vec![
        (overflowing(&grid_laplacian_2d(13, 13)), FactoKind::Cholesky, ""),
        (grid_laplacian_3d(5, 5, 5), FactoKind::Cholesky, ""),
        (
            shifted_laplacian_3d(4, 4, 4, 1.0),
            FactoKind::Ldlt,
            " facto=ldlt",
        ),
    ];
    // Task ids are per problem, and concurrent fills share the plan, so
    // the panic is aimed at a task id only the 3D grid has. Every fill of
    // the 3D grid panics, and every fill of the 2D grid overflows (typed,
    // poisoned, refilled by the next request and poisoned again), after
    // one factorization each: Cholesky reads no static-pivot threshold.
    // The shifted problem runs clean.
    let tasks = |(a, facto, _): &(CscMatrix<f64>, FactoKind, &str)| {
        let an = Analysis::new(a.pattern(), *facto, &SolverOptions::default());
        an.symbol.blocks.len()
    };
    let [tasks2d, tasks3d, tasks_s] = [0, 1, 2].map(|p| tasks(&problems[p]));
    let panic_task = tasks2d.max(tasks_s);
    assert!(panic_task < tasks3d, "the panic would not be problem-local");
    let plan = Arc::new(FaultPlan::parse(&format!("panic={panic_task}")).expect("valid plan"));
    let problems: Vec<(String, usize)> = problems
        .iter()
        .map(|(a, _, facto)| (inline_of(a) + facto, a.nrows()))
        .collect();
    let service = Arc::new(Service::start(ServeConfig {
        workers: 3,
        queue_cap: 64,
        budget: MemoryBudget::unbounded(),
        default_deadline_ms: None,
        watchdog: Some(Duration::from_secs(20)),
        fault_plan: Some(plan.clone()),
    }));

    let mut clients = Vec::new();
    for c in 0..6 {
        let service = service.clone();
        let problems = problems.clone();
        clients.push(std::thread::spawn(move || {
            let mut outcomes = (0u32, 0u32, 0u32, 0u32); // ok, deadline, other, refactorized
            // Every placement policy, two clients each.
            let engine = ["native", "dataflow", "ptg"][c % 3];
            for round in 0..10 {
                let (src, n) = &problems[(c + round) % problems.len()];
                // Every few jobs, a hostile one: a deadline so short it
                // cancels.
                let deadline = if round % 4 == 3 { " deadline_ms=1" } else { "" };
                let spec = JobSpec::parse(&format!(
                    "{src} refine=3 engine={engine} tag=c{c}r{round}{deadline}"
                ))
                .expect("spec");
                match service.solve_blocking(spec) {
                    Ok(resp) => {
                        assert_eq!(resp.x.len(), *n);
                        assert_ones(&resp.x, &format!("client {c} round {round}"));
                        if resp.factor_hit {
                            assert!(
                                resp.generation >= 1,
                                "factor hits must cite a live generation"
                            );
                        }
                        outcomes.0 += 1;
                        outcomes.3 += u32::from(resp.attempts > 1);
                    }
                    Err(JobError::Deadline { .. }) => outcomes.1 += 1,
                    Err(JobError::Overloaded(_)) | Err(JobError::ShuttingDown) => {
                        panic!("admission rejected under an uncapped budget")
                    }
                    // The injected panic fails the 3D grid's fills typed,
                    // the overflow the 2D grid's; the daemon must keep
                    // serving. Nothing else may fail a job.
                    Err(JobError::Failed(msg)) => {
                        assert!(
                            msg.contains("injected fault") || msg.contains("non-finite"),
                            "{engine}: {msg}"
                        );
                        outcomes.2 += 1;
                    }
                    Err(e) => panic!("unexpected error class: {e:?}"),
                }
            }
            outcomes
        }));
    }
    let mut total = (0u32, 0u32, 0u32, 0u32);
    for cl in clients {
        let (ok, dl, other, re) = cl.join().expect("client thread must not die");
        total = (total.0 + ok, total.1 + dl, total.2 + other, total.3 + re);
    }
    // The daemon survived 60 jobs of chaos; every non-deadline job of the
    // clean problem succeeded (16 of them).
    assert!(total.0 >= 16, "too few successes: {total:?}");
    // And it was chaos: a panic per non-deadline 3D job (16 of them) was
    // delivered, those fills and every non-deadline 2D fill (16 more)
    // died, and no job was re-factorized.
    assert!(plan.faults_injected() >= 16, "only {} faults injected", plan.faults_injected());
    assert!(total.2 >= 32 && total.3 == 0, "fills failed or retried off plan: {total:?}");
    let stats = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("clients still hold the service"))
        .shutdown();
    assert_eq!(stats.completed as u32, total.0);
    assert_eq!(stats.deadlines as u32, total.1);
    assert!(stats.factor_cache.poisonings as u32 >= total.2, "{stats:?}");
    assert!(
        stats.factor_cache.hits > 0,
        "soak never hit the factor cache: {stats:?}"
    );
}

#[test]
fn overload_rejects_typed_while_inflight_complete() {
    // Tiny queue, one worker held by a cold 16³ job (ordering, analysis
    // and factorization of 4 096 unknowns) while twelve jobs parsed
    // beforehand are submitted back to back: whatever the worker's speed
    // on the small jobs, the flood lands while the first one runs.
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    });
    let occupy = inline_of(&grid_laplacian_3d(16, 16, 16));
    let occupy = JobSpec::parse(&format!("{occupy} refine=2 tag=occupy")).expect("spec");
    let src = inline_of(&grid_laplacian_3d(6, 6, 6));
    let flood: Vec<JobSpec> = (0..12)
        .map(|i| JobSpec::parse(&format!("{src} refine=2 tag=flood{i}")).expect("spec"))
        .collect();
    let mut tickets = vec![service.submit(occupy).expect("an empty queue admits")];
    let mut rejected = 0u32;
    for spec in flood {
        match service.submit(spec) {
            Ok(t) => tickets.push(t),
            Err(JobError::Overloaded(msg)) => {
                assert!(msg.contains("queue full"), "{msg}");
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    }
    assert!(rejected >= 9, "a 2-deep queue behind a busy worker admitted {} of 12", 12 - rejected);
    for t in tickets {
        let resp = t.wait().expect("admitted jobs complete");
        assert_ones(&resp.x, "flood");
    }
    let stats = service.shutdown();
    assert!(stats.rejected as u32 >= rejected);
}

#[test]
fn deadline_job_returns_typed_error_not_partial_answer() {
    let service = Service::start(ServeConfig::default());
    let src = inline_of(&grid_laplacian_3d(6, 6, 6));
    // deadline_ms=0 is the degenerate "already expired" case.
    let spec = JobSpec::parse(&format!("{src} deadline_ms=0")).expect("spec");
    match service.solve_blocking(spec) {
        Err(JobError::Deadline { .. }) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }
    // And a sane job on the same service still works (deadline machinery
    // did not wedge the workers).
    let ok = service
        .solve_blocking(JobSpec::parse(&format!("{src} refine=2")).expect("spec"))
        .expect("normal job after a deadline");
    assert_ones(&ok.x, "post-deadline");
    let stats = service.shutdown();
    assert_eq!(stats.deadlines, 1);
}

#[test]
fn batched_same_factor_jobs_never_mix_results() {
    // One worker so the followers provably queue: the warmup job is
    // refine-heavy (refinement makes it non-batchable) and holds the
    // worker while the batchable same-factor jobs pile up behind it.
    // When the worker frees up it must coalesce them into one blocked
    // solve_many — and each ticket must still get exactly its own
    // columns back.
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 32,
        ..ServeConfig::default()
    });
    let a = grid_laplacian_3d(6, 6, 6);
    let n = a.nrows();
    let src = inline_of(&a);
    let warm = JobSpec::parse(&format!("{src} refine=3 tag=warmup")).expect("spec");

    // Job k carries the RHS k·(A·1), so its solution is exactly k·1 —
    // any cross-member leakage in the blocked solve shows up as a wrong
    // scale somewhere in x. The specs are built before anything is
    // submitted: the followers must all be queued while the warmup still
    // holds the worker, and formatting them is slower than a small
    // analysis.
    let mut a1 = vec![0.0; n];
    a.spmv(&vec![1.0; n], &mut a1);
    let followers: Vec<(usize, JobSpec)> = (1..=6usize)
        .map(|k| {
            let rhs: Vec<String> = a1.iter().map(|v| format!("{}", v * k as f64)).collect();
            let spec = format!("{src} rhs={} tag=k{k}", rhs.join(";"));
            (k, JobSpec::parse(&spec).expect("spec"))
        })
        .collect();
    let warm_ticket = service.submit(warm).expect("warmup admitted");
    let mut tickets = Vec::new();
    for (k, spec) in followers {
        tickets.push((k, service.submit(spec).expect("follower admitted")));
    }

    warm_ticket.wait().expect("warmup solves");
    let mut coalesced = 0u32;
    for (k, t) in tickets {
        let resp = t.wait().expect("batched job solves");
        assert_eq!(resp.nrhs, 1);
        assert_eq!(resp.x.len(), n);
        for (i, v) in resp.x.iter().enumerate() {
            assert!(
                (v - k as f64).abs() < 1e-6 * k as f64,
                "job k={k}: x[{i}] = {v}, expected {k} — batch mixed member columns?"
            );
        }
        if resp.batched >= 2 {
            coalesced += 1;
        }
    }
    assert!(
        coalesced >= 2,
        "queued same-factor jobs never coalesced (coalesced={coalesced})"
    );
    let stats = service.shutdown();
    assert_eq!(stats.completed, 7);
    assert!(stats.batches >= 1, "no blocked solve recorded: {stats:?}");
    assert_eq!(stats.batched as u32, coalesced);
}

/// A plain (`refine=0`) job solves on the threads its factors were built
/// on — the job's `threads` — and its answer does not depend on them:
/// bitwise the same `x` at `threads=1` and `threads=2`, at 4 right-hand
/// sides (one column group either way) and at 8 (two groups at two
/// threads: the problem is above the split floor).
#[test]
fn served_solve_is_bitwise_the_same_at_every_thread_count() {
    let a = grid_laplacian_3d(10, 10, 10);
    let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let f = an.factorize(&a, RuntimeKind::Native, 2).expect("factorization succeeds");
    assert_eq!((f.solve_groups(4), f.solve_groups(8)), (1, 2), "the split floor moved");
    let src = inline_of(&a);
    let service = Service::start(ServeConfig::default());
    for nrhs in [4, 8] {
        let x: Vec<Vec<u64>> = [1, 2]
            .iter()
            .map(|threads| {
                // `reuse=pattern`: each job factorizes on its own threads.
                let spec = format!("{src} nrhs={nrhs} threads={threads} reuse=pattern");
                let resp = service.solve_blocking(JobSpec::parse(&spec).expect("spec"));
                let resp = resp.expect("job solves");
                assert_ones(&resp.x, &format!("nrhs {nrhs}, threads {threads}"));
                resp.x.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        assert!(x[0] == x[1], "nrhs {nrhs}: threads=1 and threads=2 answer differently");
    }
    service.shutdown();
}

/// The triplets of `a`, column by column (the order `inline_of` sends).
fn triplets_of(a: &CscMatrix<f64>) -> Vec<(usize, usize, f64)> {
    let mut t = Vec::with_capacity(a.nnz());
    for j in 0..a.ncols() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            t.push((i, j, v));
        }
    }
    t
}

/// An inline source sending `triplets` in the order given.
fn inline_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> String {
    let t: Vec<String> = triplets.iter().map(|(i, j, v)| format!("{i},{j},{v}")).collect();
    format!("inline={n}:{}", t.join(";"))
}

/// Solve `src` once (`refine=2`; `rhs=aones` unless `src` sets one whose
/// answer is the ones vector too), check the answer, and return the
/// response with the stats it left behind.
fn served(service: &Service, src: &str, label: &str) -> (dagfact_serve::JobResponse, ServiceStats) {
    let spec = JobSpec::parse(&format!("{src} refine=2 tag={label}")).expect("spec");
    let resp = service.solve_blocking(spec).expect(label);
    assert_ones(&resp.x, label);
    (resp, service.stats())
}

/// Pattern-cache traffic: an alias hit leaves it where it was.
fn pattern_lookups(s: &ServiceStats) -> u64 {
    s.pattern_cache.hits + s.pattern_cache.misses
}

#[test]
fn identical_resend_is_served_through_its_alias() {
    let service = Service::start(ServeConfig::default());
    let src = inline_of(&grid_laplacian_3d(6, 6, 6));
    let (first, s1) = served(&service, &src, "first");
    assert!(!first.factor_hit);
    for round in 0..3 {
        let (resp, s2) = served(&service, &src, &format!("resend{round}"));
        assert!(resp.factor_hit && resp.pattern_hit);
        assert_eq!(resp.generation, 1);
        assert_eq!(pattern_lookups(&s2), pattern_lookups(&s1), "round {round}");
        assert_eq!(s2.factor_cache.hits, s1.factor_cache.hits + 1 + round);
        assert_eq!(s2.factor_cache.misses, s1.factor_cache.misses);
    }
    service.shutdown();
}

#[test]
fn reordered_resend_misses_its_alias_once_then_hits() {
    let service = Service::start(ServeConfig::default());
    let a = grid_laplacian_3d(6, 6, 6);
    let mut t = triplets_of(&a);
    let sent = inline_triplets(a.nrows(), &t);
    t.reverse();
    let reordered = inline_triplets(a.nrows(), &t);
    let (_, s0) = served(&service, &sent, "sent");
    // Same entries in another order: no alias yet, so the canonical path
    // (pattern cache, then the factor cache's exact check) answers, and
    // leaves an alias of this order behind.
    let (resp, s1) = served(&service, &reordered, "reordered");
    assert!(resp.factor_hit);
    assert_eq!(s1.pattern_cache.hits, s0.pattern_cache.hits + 1);
    assert_eq!(s1.factor_cache.hits, s0.factor_cache.hits + 1);
    // Both orders now hit through their own aliases.
    let mut last = s1;
    for (src, label) in [(&reordered, "reordered_again"), (&sent, "sent_again")] {
        let (resp, s) = served(&service, src, label);
        assert!(resp.factor_hit, "{label}");
        assert_eq!(pattern_lookups(&s), pattern_lookups(&last), "{label}");
        assert_eq!(s.factor_cache.hits, last.factor_cache.hits + 1, "{label}");
        last = s;
    }
    service.shutdown();
}

/// Same positions, one diagonal value changed: the two matrices share
/// every alias bucket, and neither may ever be answered with the other's
/// factors, whichever comes first. Each job sends its own `A·1` as the
/// right-hand side (`rhs=aones` would be computed from whatever matrix
/// served it). The change sits on the first triplet, which every key
/// samples, or on one of three consecutive diagonal triplets, which the
/// keys cannot all sample.
#[test]
fn a_changed_value_never_gets_the_other_matrixs_factors() {
    let a = grid_laplacian_3d(6, 6, 6);
    let t = triplets_of(&a);
    let n = a.nrows();
    let diagonals: Vec<usize> = (0..t.len()).filter(|&k| t[k].0 == t[k].1).collect();
    let job = |t: &[(usize, usize, f64)]| {
        let mut b = vec![0.0; n];
        for &(i, _, v) in t {
            b[i] += v;
        }
        let b: Vec<String> = b.iter().map(|v| v.to_string()).collect();
        format!("{} rhs={}", inline_triplets(n, t), b.join(";"))
    };
    for changed in [0, diagonals[n / 2], diagonals[n / 2 + 1], diagonals[n / 2 + 2]] {
        let mut t2 = t.clone();
        t2[changed].2 += 0.5;
        let (src, src2) = (job(&t), job(&t2));
        for order in [[&src, &src2], [&src2, &src]] {
            let service = Service::start(ServeConfig::default());
            let (first, _) = served(&service, order[0], "first");
            let (second, _) = served(&service, order[1], "second");
            assert!(!first.factor_hit && !second.factor_hit, "entry {changed}");
            // And again, now that both have factors and aliases.
            for (k, src) in order.iter().enumerate() {
                let (resp, _) = served(&service, src, &format!("again{k}"));
                assert!(resp.factor_hit, "entry {changed}");
            }
            let stats = service.shutdown();
            assert_eq!(stats.factor_cache.misses, 2, "entry {changed}");
        }
    }
}

#[test]
fn duplicate_triplets_get_no_alias_and_are_answered_right() {
    let service = Service::start(ServeConfig::default());
    let a = grid_laplacian_3d(6, 6, 6);
    let mut t = triplets_of(&a);
    // Split the first diagonal entry in two: `TripletBuilder` sums them
    // back to the same matrix, but a triplet no longer has a slot of its own.
    let (i, j, v) = t[0];
    t[0].2 = v - 2.0;
    t.push((i, j, 2.0));
    let dup = inline_triplets(a.nrows(), &t);
    let (first, s1) = served(&service, &dup, "dup");
    assert!(!first.factor_hit);
    let (resp, s2) = served(&service, &dup, "dup_again");
    assert!(resp.factor_hit, "the canonical key still finds the factors");
    assert_eq!(
        pattern_lookups(&s2),
        pattern_lookups(&s1) + 1,
        "a source with duplicates must take the canonical path every time"
    );
    // The duplicate-free source of the same matrix shares the entry.
    let (resp, _) = served(&service, &inline_of(&a), "plain");
    assert!(resp.factor_hit);
    service.shutdown();
}

#[test]
fn a_coalesced_batch_lead_is_served_through_the_alias() {
    // As in `batched_same_factor_jobs_never_mix_results`: one worker, a
    // refined warmup that fills the caches (and the alias) while the
    // followers queue behind it and coalesce.
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 32,
        ..ServeConfig::default()
    });
    let a = grid_laplacian_3d(6, 6, 6);
    let src = inline_of(&a);
    let followers: Vec<JobSpec> = (0..6)
        .map(|k| JobSpec::parse(&format!("{src} tag=f{k}")).expect("spec"))
        .collect();
    let warm = service
        .submit(JobSpec::parse(&format!("{src} refine=3 tag=warmup")).expect("spec"))
        .expect("warmup admitted");
    let tickets: Vec<_> = followers
        .into_iter()
        .map(|spec| service.submit(spec).expect("follower admitted"))
        .collect();
    warm.wait().expect("warmup solves");
    let mut coalesced = 0;
    for t in tickets {
        let resp = t.wait().expect("follower solves");
        // rhs=aones: the ones vector solves every member.
        assert_ones(&resp.x, "follower");
        assert!(resp.factor_hit);
        coalesced += usize::from(resp.batched >= 2);
    }
    let stats = service.shutdown();
    assert!(coalesced >= 2 && stats.batches >= 1, "never coalesced: {stats:?}");
    assert_eq!(
        (stats.pattern_cache.hits, stats.pattern_cache.misses),
        (0, 1),
        "only the warmup may ask the pattern cache: {stats:?}"
    );
}

#[test]
fn budget_pressure_sheds_caches_before_rejecting() {
    // Cap sized so one set of factors fits but pressure rises past the
    // shed threshold as entries accumulate; admission must shed instead
    // of failing jobs, and the ledger must never exceed the cap.
    let budget = MemoryBudget::with_cap(8 << 20);
    let service = Service::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        budget: budget.clone(),
        ..ServeConfig::default()
    });
    let problems = [
        inline_of(&grid_laplacian_2d(16, 16)),
        inline_of(&grid_laplacian_2d(17, 17)),
        inline_of(&grid_laplacian_2d(18, 18)),
        inline_of(&grid_laplacian_3d(6, 6, 6)),
    ];
    for round in 0..3 {
        for (i, src) in problems.iter().enumerate() {
            let spec =
                JobSpec::parse(&format!("{src} refine=2 tag=p{i}r{round}")).expect("spec");
            match service.solve_blocking(spec) {
                Ok(resp) => assert_ones(&resp.x, "pressure"),
                Err(JobError::Overloaded(_)) | Err(JobError::BudgetExceeded(_)) => {
                    // Typed degradation is acceptable under a hard cap —
                    // a poisoned answer or a dead worker is not.
                }
                Err(e) => panic!("unexpected failure under pressure: {e:?}"),
            }
        }
    }
    assert!(budget.peak() <= (8 << 20), "ledger exceeded its cap");
    // An identical resend is served through its alias, so aliases are
    // resident next to the factors when the shed comes.
    let src = &problems[0];
    for tag in ["fill", "resend"] {
        let spec = JobSpec::parse(&format!("{src} refine=2 tag={tag}")).expect("spec");
        assert_ones(&service.solve_blocking(spec).expect("job").x, tag);
    }
    let before = service.stats();
    let spec = JobSpec::parse(&format!("{src} refine=2 tag=alias")).expect("spec");
    let resp = service.solve_blocking(spec).expect("alias hit");
    assert_ones(&resp.x, "alias");
    let after = service.stats();
    assert!(resp.factor_hit);
    assert_eq!(after.factor_cache.hits, before.factor_cache.hits + 1);
    assert_eq!(
        (after.pattern_cache.hits, after.pattern_cache.misses),
        (before.pattern_cache.hits, before.pattern_cache.misses),
        "an alias hit must not touch the pattern cache"
    );
    assert!(after.factor_cache.resident_bytes > 0);
    // Hold the ledger at Red: the next submission sheds both caches —
    // entries and aliases — and is still rejected. Nothing stays charged.
    budget.charge_forced(8 << 20);
    let spec = JobSpec::parse(&format!("{src} refine=2 tag=shed")).expect("spec");
    assert!(matches!(service.submit(spec), Err(JobError::Overloaded(_))));
    let shed = service.stats();
    assert_eq!(
        (shed.factor_cache.resident_bytes, shed.pattern_cache.resident_bytes),
        (0, 0),
        "a shed must release every cached byte, aliases included"
    );
    budget.release(8 << 20);
    assert_eq!(budget.used(), 0, "the ledger still holds cache bytes after a shed");
    let stats = service.shutdown();
    assert!(stats.completed > 0);
}

/// Release-only ratio gate (`make check-serve`; prints, writes nothing):
/// a factor-cache hit pays a refined solve, a cold request pays ordering,
/// symbolic analysis and factorization too — the cache must buy ≥ 5×.
/// Absolute latencies are `serve.{cold,hit_p50}_ms` in BENCHMARK.json.
#[test]
#[ignore = "timing ratio: release mode only, run by `make check-serve`"]
fn factor_hit_is_at_least_5x_faster_than_cold() {
    let src = inline_of(&grid_laplacian_3d(16, 16, 16));
    let service = Service::start(ServeConfig::default());
    let timed = |reuse: &str| {
        let spec = JobSpec::parse(&format!("{src} refine=2 reuse={reuse}")).expect("spec");
        let t0 = std::time::Instant::now();
        let resp = service.solve_blocking(spec).expect("job");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resp.factor_hit, reuse == "factors", "reuse={reuse}");
        ms
    };
    // Fill both caches (a miss, so not through `timed`).
    let warm = JobSpec::parse(&format!("{src} refine=2")).expect("spec");
    service.solve_blocking(warm).expect("warm-up job");
    let mut samples = [Vec::new(), Vec::new()]; // [cold, hit], interleaved
    for rep in 0..10 {
        samples[rep % 2].push(timed(["none", "factors"][rep % 2]));
    }
    let [cold, hit] = samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    });
    println!("cold {cold:.2} ms, factor hit {hit:.2} ms: {:.1}x (gate 5x)", cold / hit);
    assert!(cold >= 5.0 * hit, "factor-hit speedup {:.1}x < 5x", cold / hit);
    service.shutdown();
}
