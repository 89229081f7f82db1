//! Job specifications and typed outcomes of the solve service.
//!
//! A job is written as whitespace-separated `key=value` directives — the
//! same mini-language style as [`dagfact_rt::FaultPlan`], chosen so specs
//! travel unescaped through command lines, job files (one job per line)
//! and HTTP bodies alike. [`JobSpec::parse`] and the `Display` impl
//! round-trip: `JobSpec::parse(&spec.to_string())` reproduces `spec`
//! exactly, which the fuzz suite leans on.

use dagfact_rt::{Json, RuntimeKind};
use dagfact_symbolic::FactoKind;
use std::fmt;

/// Where the matrix of a job comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// A Matrix Market file on the server's filesystem.
    Path(String),
    /// Inline COO triplets: order `n`, then `i,j,v` entries (0-based).
    Inline {
        /// Matrix order.
        n: usize,
        /// `(row, col, value)` triplets.
        triplets: Vec<(usize, usize, f64)>,
    },
}

/// Where the right-hand side comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum RhsSource {
    /// All-ones vector (the default; handy for smoke tests).
    Ones,
    /// `A·1` — the RHS whose exact solution is the all-ones vector, so
    /// clients can check answers without knowing the matrix.
    AOnes,
    /// Inline values, `;`-separated, column-major for `nrhs > 1`.
    Inline(Vec<f64>),
}

/// What a job is allowed to reuse from previous requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReusePolicy {
    /// Fully cold: private analysis and factorization.
    None,
    /// Share the cached ordering + symbolic analysis for the sparsity
    /// pattern, but refactorize numerically.
    Pattern,
    /// Share cached numeric factors when the values match too (multi-RHS
    /// / refine-only jobs) — implies pattern reuse.
    Factors,
}

impl ReusePolicy {
    fn as_str(self) -> &'static str {
        match self {
            ReusePolicy::None => "none",
            ReusePolicy::Pattern => "pattern",
            ReusePolicy::Factors => "factors",
        }
    }
}

/// One solve job, as accepted by [`crate::Service::submit`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Matrix source (`matrix=PATH` or `inline=N:i,j,v;i,j,v;…`).
    pub matrix: MatrixSource,
    /// Right-hand side (`rhs=ones|aones|v;v;…` — default `aones`).
    pub rhs: RhsSource,
    /// Factorization kind (`facto=cholesky|ldlt|lu` — default cholesky).
    pub facto: FactoKind,
    /// Runtime engine (`engine=native|dataflow|ptg` — default native).
    pub engine: RuntimeKind,
    /// Worker threads inside the factorization (default 2).
    pub threads: usize,
    /// Iterative-refinement step cap (`refine=K`, 0 = plain solve).
    pub refine: usize,
    /// Refinement tolerance on the backward error.
    pub tol: f64,
    /// Number of right-hand sides (column-major batch).
    pub nrhs: usize,
    /// Per-job deadline in milliseconds; past it the job is cancelled
    /// and answers `JobError::Deadline`.
    pub deadline_ms: Option<u64>,
    /// Cache policy.
    pub reuse: ReusePolicy,
    /// Free-form client tag, echoed in the response.
    pub tag: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            matrix: MatrixSource::Inline { n: 0, triplets: Vec::new() },
            rhs: RhsSource::AOnes,
            facto: FactoKind::Cholesky,
            engine: RuntimeKind::Native,
            threads: 2,
            refine: 0,
            tol: 1e-10,
            nrhs: 1,
            deadline_ms: None,
            reuse: ReusePolicy::Factors,
            tag: None,
        }
    }
}

impl JobSpec {
    /// Parse a job spec from its directive form. Unknown keys, malformed
    /// numbers and missing matrices are rejected (the parser is the
    /// service's first line of defense — it must never panic, which the
    /// mutation fuzzer in `tests/jobspec_fuzz.rs` enforces).
    pub fn parse(s: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        let mut have_matrix = false;
        for tok in s.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("directive `{tok}` is not key=value"))?;
            match key {
                "matrix" => {
                    if val.is_empty() {
                        return Err("matrix= needs a path".into());
                    }
                    spec.matrix = MatrixSource::Path(val.to_string());
                    have_matrix = true;
                }
                "inline" => {
                    spec.matrix = parse_inline(val)?;
                    have_matrix = true;
                }
                "rhs" => {
                    spec.rhs = match val {
                        "ones" => RhsSource::Ones,
                        "aones" => RhsSource::AOnes,
                        _ => RhsSource::Inline(parse_floats(val)?),
                    }
                }
                "facto" => {
                    spec.facto = match val {
                        "cholesky" => FactoKind::Cholesky,
                        "ldlt" => FactoKind::Ldlt,
                        "lu" => FactoKind::Lu,
                        _ => return Err(format!("unknown facto `{val}`")),
                    }
                }
                "engine" => {
                    spec.engine = match val {
                        "native" => RuntimeKind::Native,
                        "dataflow" => RuntimeKind::Dataflow,
                        "ptg" => RuntimeKind::Ptg,
                        _ => return Err(format!("unknown engine `{val}`")),
                    }
                }
                "threads" => spec.threads = parse_num(key, val)?,
                "refine" => spec.refine = parse_num(key, val)?,
                "nrhs" => spec.nrhs = parse_num(key, val)?,
                "tol" => {
                    spec.tol = val
                        .parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t > 0.0)
                        .ok_or_else(|| format!("bad tol `{val}`"))?
                }
                "deadline_ms" => spec.deadline_ms = Some(parse_num(key, val)? as u64),
                "reuse" => {
                    spec.reuse = match val {
                        "none" => ReusePolicy::None,
                        "pattern" => ReusePolicy::Pattern,
                        "factors" => ReusePolicy::Factors,
                        _ => return Err(format!("unknown reuse policy `{val}`")),
                    }
                }
                "tag" => spec.tag = Some(val.to_string()),
                _ => return Err(format!("unknown directive `{key}`")),
            }
        }
        if !have_matrix {
            return Err("job needs matrix= or inline=".into());
        }
        if spec.threads == 0 || spec.threads > 256 {
            return Err(format!("threads={} out of range 1..=256", spec.threads));
        }
        if spec.nrhs == 0 {
            return Err("nrhs=0".into());
        }
        Ok(spec)
    }
}

fn parse_num(key: &str, val: &str) -> Result<usize, String> {
    val.parse::<usize>().map_err(|_| format!("bad {key} `{val}`"))
}

fn parse_floats(s: &str) -> Result<Vec<f64>, String> {
    s.split(';')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("bad rhs value `{t}`"))
        })
        .collect()
}

/// `inline=N:i,j,v;i,j,v;…`
fn parse_inline(val: &str) -> Result<MatrixSource, String> {
    let (n_str, rest) = val
        .split_once(':')
        .ok_or_else(|| "inline= needs N:triplets".to_string())?;
    let n: usize = n_str.parse().map_err(|_| format!("bad inline order `{n_str}`"))?;
    if n == 0 || n > 1 << 20 {
        return Err(format!("inline order {n} out of range"));
    }
    let mut triplets = Vec::new();
    for t in rest.split(';').filter(|t| !t.is_empty()) {
        let mut parts = t.split(',');
        let (i, j, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(i), Some(j), Some(v), None) => (i, j, v),
            _ => return Err(format!("triplet `{t}` is not i,j,v")),
        };
        let i: usize = i.parse().map_err(|_| format!("bad row in `{t}`"))?;
        let j: usize = j.parse().map_err(|_| format!("bad col in `{t}`"))?;
        let v: f64 = v
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite())
            .ok_or_else(|| format!("bad value in `{t}`"))?;
        if i >= n || j >= n {
            return Err(format!("triplet `{t}` outside {n}x{n}"));
        }
        triplets.push((i, j, v));
    }
    if triplets.is_empty() {
        return Err("inline matrix has no entries".into());
    }
    Ok(MatrixSource::Inline { n, triplets })
}

impl fmt::Display for JobSpec {
    /// Canonical directive form; `JobSpec::parse` round-trips it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.matrix {
            MatrixSource::Path(p) => write!(f, "matrix={p}")?,
            MatrixSource::Inline { n, triplets } => {
                write!(f, "inline={n}:")?;
                for (k, (i, j, v)) in triplets.iter().enumerate() {
                    if k > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{i},{j},{v}")?;
                }
            }
        }
        match &self.rhs {
            RhsSource::AOnes => {}
            RhsSource::Ones => write!(f, " rhs=ones")?,
            RhsSource::Inline(vals) => {
                write!(f, " rhs=")?;
                for (k, v) in vals.iter().enumerate() {
                    if k > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{v}")?;
                }
            }
        }
        let d = JobSpec::default();
        if self.facto != d.facto {
            let name = match self.facto {
                FactoKind::Cholesky => "cholesky",
                FactoKind::Ldlt => "ldlt",
                FactoKind::Lu => "lu",
            };
            write!(f, " facto={name}")?;
        }
        if self.engine != d.engine {
            let name = match self.engine {
                RuntimeKind::Native => "native",
                RuntimeKind::Dataflow => "dataflow",
                RuntimeKind::Ptg => "ptg",
            };
            write!(f, " engine={name}")?;
        }
        if self.threads != d.threads {
            write!(f, " threads={}", self.threads)?;
        }
        if self.refine != d.refine {
            write!(f, " refine={}", self.refine)?;
        }
        if self.tol != d.tol {
            write!(f, " tol={}", self.tol)?;
        }
        if self.nrhs != d.nrhs {
            write!(f, " nrhs={}", self.nrhs)?;
        }
        if let Some(ms) = self.deadline_ms {
            write!(f, " deadline_ms={ms}")?;
        }
        if self.reuse != d.reuse {
            write!(f, " reuse={}", self.reuse.as_str())?;
        }
        if let Some(tag) = &self.tag {
            write!(f, " tag={tag}")?;
        }
        Ok(())
    }
}

/// Typed job failures — the contract of the robustness core: a client
/// always gets one of these or a complete answer, never a partial one.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The spec, matrix or RHS is malformed; resubmitting unchanged will
    /// fail again.
    BadRequest(String),
    /// The job exceeded its deadline and was cancelled at a task
    /// boundary.
    Deadline { elapsed_ms: u64 },
    /// Admission control refused the job (queue full or memory pressure
    /// critical even after shedding caches). Transient: retry later.
    Overloaded(String),
    /// The factorization cannot fit the memory budget even with
    /// degradation. Resubmitting needs a smaller problem or bigger cap.
    BudgetExceeded(String),
    /// The job's worker caught a panic; only this job's cache fill (if
    /// any) was poisoned, the daemon and other entries are unaffected.
    Panicked(String),
    /// The solver failed with a typed error (numeric breakdown past
    /// recovery, refinement stall, spill I/O…).
    Failed(String),
    /// The service is draining; no new jobs are accepted.
    ShuttingDown,
}

impl JobError {
    /// Stable lowercase kind tag (JSON `error.kind`, stats keys).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::BadRequest(_) => "bad_request",
            JobError::Deadline { .. } => "deadline",
            JobError::Overloaded(_) => "overloaded",
            JobError::BudgetExceeded(_) => "budget_exceeded",
            JobError::Panicked(_) => "panicked",
            JobError::Failed(_) => "failed",
            JobError::ShuttingDown => "shutting_down",
        }
    }

    /// HTTP status the front end maps this error to.
    pub fn http_status(&self) -> u16 {
        match self {
            JobError::BadRequest(_) => 400,
            JobError::Deadline { .. } => 408,
            JobError::Overloaded(_) => 429,
            JobError::BudgetExceeded(_) => 413,
            JobError::Panicked(_) | JobError::Failed(_) => 500,
            JobError::ShuttingDown => 503,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::BadRequest(m) => write!(f, "bad request: {m}"),
            JobError::Deadline { elapsed_ms } => {
                write!(f, "deadline exceeded after {elapsed_ms} ms")
            }
            JobError::Overloaded(m) => write!(f, "overloaded: {m}"),
            JobError::BudgetExceeded(m) => write!(f, "budget exceeded: {m}"),
            JobError::Panicked(m) => write!(f, "job panicked: {m}"),
            JobError::Failed(m) => write!(f, "solve failed: {m}"),
            JobError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for JobError {}

/// A completed solve, with enough provenance to audit cache behavior.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// Solution vector(s), column-major `n × nrhs`.
    pub x: Vec<f64>,
    /// Matrix order.
    pub n: usize,
    /// Number of right-hand sides solved.
    pub nrhs: usize,
    /// Refinement iterations actually performed (0 for plain solves).
    pub iterations: usize,
    /// Final backward error when refinement ran.
    pub berr: Option<f64>,
    /// Whether the ordering+symbolic analysis came from the pattern
    /// cache.
    pub pattern_hit: bool,
    /// Whether the numeric factors came from the factor cache.
    pub factor_hit: bool,
    /// Generation of the factor-cache entry that produced the answer
    /// (0 when factors were not cached). Soak tests assert it matches a
    /// never-poisoned generation.
    pub generation: u64,
    /// Factorization attempts by the adaptive recovery loop (0 on a pure
    /// factor-cache hit).
    pub attempts: u32,
    /// Size of the coalesced blocked solve this answer rode in: queued
    /// same-factor jobs are batched into one `solve_many` call, so a
    /// value ≥ 2 means this job shared its triangular sweeps with that
    /// many peers. 1 = solved alone.
    pub batched: usize,
    /// Wall-clock job latency in microseconds.
    pub elapsed_us: u64,
    /// Client tag, echoed back.
    pub tag: Option<String>,
}

impl JobResponse {
    /// Serialize as a compact JSON object. `with_x` controls whether the
    /// (possibly large) solution vector is included.
    pub fn to_json(&self, with_x: bool) -> String {
        let mut j = Json::obj()
            .field("status", "ok")
            .field("n", self.n)
            .field("nrhs", self.nrhs)
            .field("iterations", self.iterations)
            .field("berr", self.berr)
            .field("pattern_hit", self.pattern_hit)
            .field("factor_hit", self.factor_hit)
            .field("generation", self.generation)
            .field("attempts", u64::from(self.attempts))
            .field("batched", self.batched)
            .field("elapsed_us", self.elapsed_us);
        if let Some(tag) = &self.tag {
            j = j.field("tag", tag.as_str());
        }
        if with_x {
            j = j.field("x", Json::Arr(self.x.iter().map(|&v| Json::Num(v)).collect()));
        }
        j.to_string()
    }
}

impl JobError {
    /// Serialize as a JSON error object.
    pub fn to_json(&self) -> String {
        Json::obj()
            .field("status", "error")
            .field("kind", self.kind())
            .field("message", self.to_string())
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = JobSpec::parse("matrix=/tmp/a.mtx").expect("parse");
        assert_eq!(spec.matrix, MatrixSource::Path("/tmp/a.mtx".into()));
        assert_eq!(spec.rhs, RhsSource::AOnes);
        assert_eq!(spec.reuse, ReusePolicy::Factors);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn inline_matrix_and_rhs_round_trip() {
        let text = "inline=2:0,0,4;1,1,4;1,0,1 rhs=1;2 facto=lu engine=ptg \
                    threads=3 refine=5 tol=0.000001 nrhs=1 deadline_ms=250 \
                    reuse=pattern tag=job-7";
        let spec = JobSpec::parse(text).expect("parse");
        let printed = spec.to_string();
        let again = JobSpec::parse(&printed).expect("reparse");
        assert_eq!(spec, again, "display must round-trip: `{printed}`");
    }

    #[test]
    fn default_fields_are_omitted_from_display() {
        let spec = JobSpec::parse("matrix=a.mtx").expect("parse");
        assert_eq!(spec.to_string(), "matrix=a.mtx");
    }

    #[test]
    fn bad_specs_are_rejected_not_panicked() {
        for bad in [
            "",
            "matrix=",
            "inline=0:",
            "inline=2:9,9,1",
            "inline=2:0,0,nan",
            "matrix=a.mtx threads=0",
            "matrix=a.mtx threads=9999",
            "matrix=a.mtx nrhs=0",
            "matrix=a.mtx tol=-1",
            "matrix=a.mtx tol=abc",
            "matrix=a.mtx facto=qr",
            "matrix=a.mtx engine=cuda",
            "matrix=a.mtx reuse=always",
            "matrix=a.mtx bogus=1",
            "matrix=a.mtx deadline_ms=abc",
            "inline=2",
            "inline=2:0,0",
            "noequals",
        ] {
            assert!(JobSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn job_error_json_escapes_messages() {
        let e = JobError::BadRequest("quote \" and \\ and\nnewline".into());
        let j = e.to_json();
        assert!(j.contains("\\\""), "{j}");
        assert!(j.contains("\\\\"), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert_eq!(e.http_status(), 400);
    }

    fn response() -> JobResponse {
        JobResponse {
            x: vec![1.0, -0.5, 1e-7, 2.5e21, f64::NAN, 0.1 + 0.2],
            n: 3,
            nrhs: 2,
            iterations: 2,
            berr: Some(1.25e-16),
            pattern_hit: true,
            factor_hit: false,
            generation: 7,
            attempts: 1,
            batched: 1,
            elapsed_us: 1234,
            tag: Some("q\" b\\ n\n c\u{1} é".to_string()),
        }
    }

    /// The rendering clients parse, byte for byte as the hand-rolled
    /// emitter this replaced produced it (strings captured from it).
    #[test]
    fn response_json_is_pinned() {
        const HEAD: &str = "{\"status\":\"ok\",\"n\":3,\"nrhs\":2,\"iterations\":2,";
        const FLAGS: &str = "\"pattern_hit\":true,\"factor_hit\":false,\"generation\":7,\
             \"attempts\":1,\"batched\":1,\"elapsed_us\":1234";
        const TAG: &str = ",\"tag\":\"q\\\" b\\\\ n\\n c\\u0001 é\"";
        let mut r = response();
        let berr = "\"berr\":0.000000000000000125,";
        assert_eq!(r.to_json(false), format!("{HEAD}{berr}{FLAGS}{TAG}}}"));
        assert_eq!(
            r.to_json(true),
            format!(
                "{HEAD}{berr}{FLAGS}{TAG},\"x\":[1,-0.5,0.0000001,\
                 2500000000000000000000,null,0.30000000000000004]}}"
            )
        );
        // A non-finite backward error is `null`, like an absent one; no
        // tag means no `tag` key.
        r.tag = None;
        r.x.clear();
        for berr in [Some(f64::INFINITY), None] {
            r.berr = berr;
            assert_eq!(r.to_json(false), format!("{HEAD}\"berr\":null,{FLAGS}}}"));
        }
        assert_eq!(r.to_json(true), format!("{HEAD}\"berr\":null,{FLAGS},\"x\":[]}}"));
    }

    #[test]
    fn error_json_is_pinned() {
        assert_eq!(
            JobError::BadRequest("quote \" and \\ and\nnewline\ttab\r\u{1f}".into()).to_json(),
            "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\
             \"bad request: quote \\\" and \\\\ and\\nnewline\\ttab\\r\\u001f\"}"
        );
        assert_eq!(
            JobError::ShuttingDown.to_json(),
            "{\"status\":\"error\",\"kind\":\"shutting_down\",\
             \"message\":\"service is shutting down\"}"
        );
    }
}
