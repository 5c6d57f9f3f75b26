//! Scheduler error type.

use mpsoc_offload::model::FitError;
use mpsoc_offload::OffloadError;

/// Anything that can go wrong while calibrating or simulating.
#[derive(Debug)]
pub enum SchedError {
    /// An offload (or host run) on the underlying SoC failed.
    Offload(OffloadError),
    /// Fitting a kernel's runtime model failed.
    Fit(FitError),
    /// The co-simulated session went quiet with tenants still in flight
    /// and no arrival left to advance virtual time: an in-flight job
    /// will never complete (e.g. a wedged completion barrier after an
    /// injected fault).
    SessionStalled {
        /// Tenants stuck in flight.
        in_flight: usize,
    },
    /// The policy left admitted jobs that fit the machine queued with
    /// nothing in flight, so no completion will come to re-pick them:
    /// a policy that passes on a job it could place.
    Unscheduled {
        /// Jobs left in the queue.
        queued: usize,
    },
    /// The co-simulated session delivered a completion for a job the
    /// engine never submitted.
    UnknownCompletion {
        /// The session's job handle.
        job: u64,
    },
    /// The scheduling policy returned a placement the machine cannot
    /// honour: a queue index past the ready queue, a zero-width
    /// partition, or more clusters than are free.
    InvalidPlacement {
        /// The placement's index into the ready queue.
        queue_index: usize,
        /// Jobs in the ready queue when the policy picked.
        queue_len: usize,
        /// The partition size the policy asked for.
        m: usize,
        /// Clusters free when the policy picked.
        free: usize,
    },
    /// A job would finish past cycle `u64::MAX`, where virtual time
    /// ends: its host run or its offload starts too late to fit.
    PastHorizon {
        /// The job's id.
        job: u64,
        /// The cycle it would start at.
        start: u64,
        /// Its service time (cycles).
        cycles: u64,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Offload(e) => write!(f, "offload failed: {e}"),
            SchedError::Fit(e) => write!(f, "model fit failed: {e}"),
            SchedError::SessionStalled { in_flight } => write!(
                f,
                "co-simulated session stalled with {in_flight} tenant(s) in flight \
                 that will never complete"
            ),
            SchedError::Unscheduled { queued } => write!(
                f,
                "policy left {queued} admitted job(s) unscheduled with nothing in flight"
            ),
            SchedError::UnknownCompletion { job } => {
                write!(f, "completion for unknown session job {job}")
            }
            SchedError::InvalidPlacement {
                queue_index,
                queue_len,
                m,
                free,
            } => write!(
                f,
                "policy placed queue entry {queue_index} of {queue_len} on {m} cluster(s) \
                 with {free} free"
            ),
            SchedError::PastHorizon { job, start, cycles } => write!(
                f,
                "job {job} starting at cycle {start} would run {cycles} cycle(s), \
                 past the end of virtual time"
            ),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Offload(e) => Some(e),
            SchedError::Fit(e) => Some(e),
            SchedError::SessionStalled { .. }
            | SchedError::Unscheduled { .. }
            | SchedError::UnknownCompletion { .. }
            | SchedError::InvalidPlacement { .. }
            | SchedError::PastHorizon { .. } => None,
        }
    }
}

impl From<OffloadError> for SchedError {
    fn from(e: OffloadError) -> Self {
        SchedError::Offload(e)
    }
}

impl From<FitError> for SchedError {
    fn from(e: FitError) -> Self {
        SchedError::Fit(e)
    }
}
