//! Job and sub-job state: identifiers, lifecycle phases, the xRSL →
//! [`Job`] submission mapping, and the error type of the grid layer.

use gm_des::{NodeStat, SimDuration, SimTime};
use gm_tycoon::{AccountId, BidHandle, Credits, HostId, UserId};

use crate::token::{TokenError, TransferToken};
use crate::xrsl::{parse_duration_secs, ParseError, Xrsl};

/// Identifier of a grid job.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

/// Lifecycle phase of a grid job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobPhase {
    /// Sub-jobs are executing (or staging).
    Running,
    /// All sub-jobs finished; unspent funds refunded.
    Done,
    /// Funds exhausted before completion.
    Stalled,
    /// Killed by the user; unspent funds refunded.
    Cancelled,
}

/// What kind of workload a job is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum JobKind {
    /// A bag-of-tasks batch job: sub-jobs complete when their work is done
    /// (the paper's §5 bioinformatics application).
    Batch,
    /// A continuous service (web server, database — §2.2: "more important
    /// for service-oriented applications"): instances run until the
    /// contract deadline; QoS = fraction of intervals delivering at least
    /// `min_mhz` per instance.
    Service {
        /// Capacity floor per instance for an interval to count as met.
        min_mhz: f64,
    },
}

/// Errors from job submission and control.
#[derive(Debug)]
pub enum GridError {
    /// Transfer token rejected.
    Token(TokenError),
    /// Underlying market/bank failure.
    Market(gm_tycoon::MarketError),
    /// xRSL could not be parsed.
    Xrsl(ParseError),
    /// A required xRSL attribute is missing or malformed.
    BadDescription(String),
    /// Unknown job id.
    NoSuchJob(JobId),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Token(e) => write!(f, "token rejected: {e}"),
            GridError::Market(e) => write!(f, "market error: {e}"),
            GridError::Xrsl(e) => write!(f, "{e}"),
            GridError::BadDescription(m) => write!(f, "bad job description: {m}"),
            GridError::NoSuchJob(id) => write!(f, "no such job {id:?}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<TokenError> for GridError {
    fn from(e: TokenError) -> Self {
        GridError::Token(e)
    }
}
impl From<gm_tycoon::MarketError> for GridError {
    fn from(e: gm_tycoon::MarketError) -> Self {
        GridError::Market(e)
    }
}
impl From<gm_tycoon::BankError> for GridError {
    fn from(e: gm_tycoon::BankError) -> Self {
        GridError::Market(gm_tycoon::MarketError::Bank(e))
    }
}
impl From<ParseError> for GridError {
    fn from(e: ParseError) -> Self {
        GridError::Xrsl(e)
    }
}

/// One unit of a bag-of-tasks job (one proteome chunk, §5.2).
#[derive(Clone, Debug)]
pub struct SubJob {
    /// Position within the job.
    pub index: u32,
    /// Work to do, in MHz·seconds.
    pub work_total: f64,
    /// Work completed so far, in MHz·seconds.
    pub work_done: f64,
    /// Host currently executing this sub-job.
    pub host: Option<HostId>,
    /// When execution (incl. staging) can begin computing.
    pub compute_ready: Option<SimTime>,
    /// Set when compute finished; sub-job completes after stage-out.
    pub stage_out_until: Option<SimTime>,
    /// Completion time.
    pub finished_at: Option<SimTime>,
    /// When the sub-job was first assigned to a host.
    pub started_at: Option<SimTime>,
    /// Times this sub-job was assigned to a host (1 for a fault-free run).
    pub dispatches: u32,
    /// Times this sub-job was interrupted by a failure and re-queued.
    /// Invariant: a finished sub-job has `dispatches == requeues + 1` —
    /// every interruption was re-dispatched exactly once and completion
    /// happened on the final dispatch (a sub-job is never both completed
    /// and re-dispatched).
    pub requeues: u32,
    /// Host of the speculative twin replica, if one is racing the
    /// primary (`DESIGN.md` §17). Twins hedge gray-failure deadline
    /// misses: first replica to finish wins, the loser retires.
    pub twin_host: Option<HostId>,
    /// When the twin's compute (incl. staging) can begin.
    pub twin_compute_ready: Option<SimTime>,
    /// Work completed by the twin replica, in MHz·seconds (independent
    /// of [`SubJob::work_done`]: replicas duplicate work, never split it).
    pub twin_work_done: f64,
    /// Raw capacity (MHz) the primary's host allocated last interval —
    /// the observed-rate input of the speculative-finish projection.
    pub last_rate_mhz: f64,
}

impl SubJob {
    pub(super) fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }
    pub(super) fn is_computing(&self) -> bool {
        self.host.is_some() && self.finished_at.is_none() && self.stage_out_until.is_none()
    }
}

/// A per-host execution slot a job holds: one bid + one VM running one
/// sub-job at a time.
#[derive(Clone, Debug)]
pub(super) struct Slot {
    pub(super) host: HostId,
    pub(super) bid: Option<BidHandle>,
    pub(super) rate: f64,
    pub(super) subjob: Option<usize>,
    /// This slot runs the speculative twin of its sub-job, not the
    /// primary replica (`DESIGN.md` §17).
    pub(super) twin: bool,
    /// This slot lost a speculation race (or its replica was interrupted)
    /// and is winding down: its bid is cancelled — exactly once, retried
    /// through bank outages — at the next `pre_tick`, then it is dropped.
    /// Never funded, never dispatched onto, never counted as a node.
    pub(super) retiring: bool,
}

/// A grid job under management.
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Market user this job bids as.
    pub user: UserId,
    /// Submitting identity's DN (from the token binding).
    pub dn: String,
    /// The job name from xRSL.
    pub name: String,
    /// Funded sub-account paying for the job.
    pub sub_account: AccountId,
    /// Account refunded at completion (the token payer).
    pub refund_account: AccountId,
    /// Deadline (submission + cpuTime).
    pub deadline: SimTime,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time (Done or Stalled).
    pub finished_at: Option<SimTime>,
    /// Current phase.
    pub phase: JobPhase,
    /// The sub-jobs.
    pub subjobs: Vec<SubJob>,
    /// Total credits charged by hosts for this job.
    pub charged: Credits,
    /// Runtime environments the VMs need.
    pub envs: Vec<String>,
    pub(super) slots: Vec<Slot>,
    /// Concurrency, sampled every pre-tick while the job is `Running`.
    pub(super) nodes: NodeStat,
    pub(super) initial_funding: Credits,
    /// Workload kind (batch vs continuous service).
    pub kind: JobKind,
    /// Service QoS counters: (instance-intervals meeting the floor,
    /// instance-intervals observed). Always (0, 0) for batch jobs.
    pub(super) qos: (u64, u64),
    /// Set by the fault handlers: sub-jobs were interrupted (or initial
    /// placement failed) and the re-dispatch machinery should run.
    pub(super) needs_redispatch: bool,
    /// Consecutive re-dispatch rounds in which the job could make no
    /// progress at all (nothing running, nothing placeable).
    pub(super) retry_failures: u32,
    /// Earliest time of the next re-dispatch attempt (exponential backoff).
    pub(super) retry_after: Option<SimTime>,
}

impl Job {
    /// Average concurrent nodes over the job's lifetime.
    pub fn avg_nodes(&self) -> f64 {
        self.nodes.avg()
    }

    /// Maximum concurrent nodes observed.
    pub fn max_nodes(&self) -> usize {
        self.nodes.peak()
    }

    /// Makespan so far (or final, when finished).
    pub fn makespan(&self, now: SimTime) -> SimDuration {
        self.finished_at.unwrap_or(now).since(self.submitted_at)
    }

    /// Funding attached at submission (excluding boosts).
    pub fn initial_funding(&self) -> Credits {
        self.initial_funding
    }

    /// Completed sub-jobs.
    pub fn completed_subjobs(&self) -> usize {
        self.subjobs.iter().filter(|s| s.is_finished()).count()
    }

    /// Service QoS: fraction of instance-intervals that met the capacity
    /// floor (`None` for batch jobs or before any observation).
    pub fn service_qos(&self) -> Option<f64> {
        match self.kind {
            JobKind::Batch => None,
            JobKind::Service { .. } => {
                if self.qos.1 == 0 {
                    None
                } else {
                    Some(self.qos.0 as f64 / self.qos.1 as f64)
                }
            }
        }
    }

    /// Raw service QoS counters `(instance-intervals met, observed)` —
    /// useful for windowed QoS deltas. `(0, 0)` for batch jobs.
    pub fn qos_counts(&self) -> (u64, u64) {
        self.qos
    }

    /// The NorduGrid/ARC state string a grid monitor would display for
    /// this job (ACCEPTED → PREPARING → INLRMS:R → FINISHING → FINISHED,
    /// FAILED on stall).
    pub fn arc_state(&self, now: SimTime) -> &'static str {
        match self.phase {
            JobPhase::Done => "FINISHED",
            JobPhase::Stalled => "FAILED",
            JobPhase::Cancelled => "KILLED",
            JobPhase::Running => {
                let any_started = self.subjobs.iter().any(|s| s.started_at.is_some());
                if !any_started {
                    return "ACCEPTED";
                }
                let any_computing = self.subjobs.iter().any(|s| {
                    s.started_at.is_some()
                        && s.stage_out_until.is_none()
                        && s.compute_ready.is_some_and(|r| r <= now)
                });
                if any_computing {
                    return "INLRMS:R";
                }
                let any_preparing = self
                    .subjobs
                    .iter()
                    .any(|s| s.compute_ready.is_some_and(|r| r > now));
                if any_preparing {
                    "PREPARING"
                } else {
                    "FINISHING"
                }
            }
        }
    }

    /// Materialise a freshly submitted job from its parsed description.
    pub(super) fn build(
        id: JobId,
        user: UserId,
        token: &TransferToken,
        parsed: ParsedSubmission,
        now: SimTime,
        sub_account: AccountId,
    ) -> Job {
        let per_subjob_work = match parsed.kind {
            JobKind::Batch => parsed.work_mhz_secs_per_subjob,
            // Service instances never "finish" by doing work.
            JobKind::Service { .. } => f64::INFINITY,
        };
        let subjobs: Vec<SubJob> = (0..parsed.count)
            .map(|index| SubJob {
                index,
                work_total: per_subjob_work,
                work_done: 0.0,
                host: None,
                compute_ready: None,
                stage_out_until: None,
                finished_at: None,
                started_at: None,
                dispatches: 0,
                requeues: 0,
                twin_host: None,
                twin_compute_ready: None,
                twin_work_done: 0.0,
                last_rate_mhz: 0.0,
            })
            .collect();
        Job {
            id,
            user,
            dn: token.dn.clone(),
            name: parsed.name,
            sub_account,
            refund_account: token.receipt.from,
            deadline: now + SimDuration::from_secs(parsed.deadline_secs),
            submitted_at: now,
            finished_at: None,
            phase: JobPhase::Running,
            subjobs,
            charged: Credits::ZERO,
            envs: parsed.envs,
            slots: Vec::new(),
            nodes: NodeStat::default(),
            initial_funding: token.amount(),
            kind: parsed.kind,
            qos: (0, 0),
            needs_redispatch: false,
            retry_failures: 0,
            retry_after: None,
        }
    }
}

/// A submission: the xRSL text plus the work calibration the runtime
/// environment implies (MHz·seconds per sub-job — the proteome chunk cost
/// in the paper's experiments).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The job description.
    pub xrsl: Xrsl,
    /// CPU work per sub-job in MHz·seconds.
    pub work_mhz_secs_per_subjob: f64,
}

impl JobSpec {
    /// Parse a spec from xRSL text.
    pub fn parse(text: &str, work_mhz_secs_per_subjob: f64) -> Result<JobSpec, GridError> {
        Ok(JobSpec {
            xrsl: Xrsl::parse(text)?,
            work_mhz_secs_per_subjob,
        })
    }
}

/// The validated, market-independent part of a submission.
pub(super) struct ParsedSubmission {
    pub(super) count: u32,
    pub(super) deadline_secs: u64,
    pub(super) work_mhz_secs_per_subjob: f64,
    pub(super) kind: JobKind,
    pub(super) name: String,
    pub(super) envs: Vec<String>,
}

/// Pull the transfer token out of an xRSL description.
pub(super) fn extract_token(xrsl: &Xrsl) -> Result<TransferToken, GridError> {
    let token_hex = xrsl
        .get_str("transfertoken")
        .ok_or_else(|| GridError::BadDescription("missing transferToken".into()))?;
    TransferToken::from_hex(token_hex)
        .ok_or_else(|| GridError::BadDescription("malformed transferToken".into()))
}

/// Validate the xRSL attributes of `spec` into a [`ParsedSubmission`].
/// [`super::JobManager::submit`] runs this before it redeems the token,
/// so a rejected description never spends one.
pub(super) fn parse_submission(spec: &JobSpec) -> Result<ParsedSubmission, GridError> {
    let xrsl = &spec.xrsl;
    let count: u32 = xrsl
        .get_str("count")
        .unwrap_or("1")
        .parse()
        .map_err(|_| GridError::BadDescription("count must be an integer".into()))?;
    if count == 0 {
        return Err(GridError::BadDescription("count must be >= 1".into()));
    }
    let deadline_secs = xrsl
        .get_str("cputime")
        .or_else(|| xrsl.get_str("walltime"))
        .and_then(parse_duration_secs)
        .ok_or_else(|| GridError::BadDescription("missing/invalid cpuTime".into()))?;
    if spec.work_mhz_secs_per_subjob.is_nan() || spec.work_mhz_secs_per_subjob <= 0.0 {
        return Err(GridError::BadDescription("non-positive work per sub-job".into()));
    }
    let kind = match xrsl.get_str("jobtype").map(str::to_ascii_lowercase).as_deref() {
        None | Some("batch") => JobKind::Batch,
        Some("service") => {
            let min_mhz = xrsl
                .get_str("serviceminmhz")
                .map(|v| {
                    v.parse::<f64>().map_err(|_| {
                        GridError::BadDescription("serviceMinMhz must be a number".into())
                    })
                })
                .transpose()?
                .unwrap_or(0.0);
            JobKind::Service { min_mhz }
        }
        Some(other) => {
            return Err(GridError::BadDescription(format!(
                "unknown jobType '{other}'"
            )))
        }
    };
    let name = xrsl.get_str("jobname").unwrap_or("unnamed").to_owned();
    let envs: Vec<String> = xrsl
        .get_all("runtimeenvironment")
        .iter()
        .filter_map(|vals| vals.first().and_then(|v| v.as_str()).map(str::to_owned))
        .collect();
    Ok(ParsedSubmission {
        count,
        deadline_secs,
        work_mhz_secs_per_subjob: spec.work_mhz_secs_per_subjob,
        kind,
        name,
        envs,
    })
}
