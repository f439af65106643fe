//! Workload calibration and xRSL generation for the §5 experiments.
//!
//! The paper's numbers: a chunk takes "approximately 212 minutes to
//! analyze on a single node … with a 100% share of a CPU" (§5.2); each
//! user's application "makes use of a maximum of 15 nodes out of a total
//! of 30 physical nodes", with one VM per user per physical machine.

use gm_grid::{GridIdentity, JobSpec, TransferToken};
use gm_tycoon::Credits;

/// Paper §5.2: minutes to analyze one chunk at a 100 % CPU share.
pub const CHUNK_MINUTES_AT_FULL_CPU: f64 = 212.0;

/// The testbed vCPU capacity used for calibration (MHz, matches
/// `HostSpec::testbed`).
pub const REFERENCE_VCPU_MHZ: f64 = 2910.0;

/// A parameterized bio experiment workload for one user.
#[derive(Clone, Debug)]
pub struct BioWorkload {
    /// Number of sub-jobs (chunks) — the xRSL `count`.
    pub subjobs: u32,
    /// Minutes per chunk at a full vCPU.
    pub chunk_minutes: f64,
    /// Deadline in minutes (`cpuTime`).
    pub deadline_minutes: u64,
}

impl BioWorkload {
    /// The paper's §5 configuration: 15 chunks, 212 min each, deadline
    /// 5.5 h (Table 2's experiment).
    pub fn paper_default() -> BioWorkload {
        BioWorkload {
            subjobs: 15,
            chunk_minutes: CHUNK_MINUTES_AT_FULL_CPU,
            deadline_minutes: 330,
        }
    }

    /// Work per sub-job in MHz·seconds (the `JobSpec` calibration).
    pub fn work_mhz_secs_per_subjob(&self) -> f64 {
        self.chunk_minutes * 60.0 * REFERENCE_VCPU_MHZ
    }
}

/// The bio application's xRSL around `token`, as a ready-to-submit
/// [`JobSpec`] named `job_name` with the workload's calibrated work.
pub fn bio_job_spec(
    workload: &BioWorkload,
    token: &TransferToken,
    job_name: &str,
) -> Result<JobSpec, gm_grid::GridError> {
    let text = format!(
        concat!(
            "&(executable=\"proteome_scan.sh\")\n",
            "(jobName=\"{name}\")\n",
            "(count={count})\n",
            "(cpuTime=\"{deadline} minutes\")\n",
            "(runTimeEnvironment=\"APPS/BIO/BLAST-2.2\")\n",
            "(inputFiles=(\"proteome.fasta\" \"gsiftp://se.biotech.kth.se/proteome.fasta\"))\n",
            "(outputFiles=(\"windows.tsv\" \"\"))\n",
            "(stdout=\"out.log\")(stderr=\"err.log\")\n",
            "(transferToken=\"{token}\")"
        ),
        name = job_name,
        count = workload.subjobs,
        deadline = workload.deadline_minutes,
        token = token.to_hex(),
    );
    JobSpec::parse(&text, workload.work_mhz_secs_per_subjob())
}

/// Convenience: the funding flow of §3.1 in one call — transfer
/// `funding` from the user's account to the broker, wrap the receipt in a
/// token bound to the user's own DN.
pub fn fund_token(
    bank: &mut gm_tycoon::Bank,
    user: &GridIdentity,
    user_account: gm_tycoon::AccountId,
    broker_account: gm_tycoon::AccountId,
    funding: Credits,
) -> Result<TransferToken, gm_tycoon::BankError> {
    let receipt = bank.transfer(user_account, broker_account, funding)?;
    Ok(TransferToken::create(user, receipt, user.dn()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_tycoon::Bank;

    #[test]
    fn paper_calibration() {
        let w = BioWorkload::paper_default();
        assert_eq!(w.subjobs, 15);
        // 212 min × 60 s × 2910 MHz
        assert!((w.work_mhz_secs_per_subjob() - 37_015_200.0).abs() < 1.0);
    }

    #[test]
    fn xrsl_parses_and_round_trips_token() {
        let mut bank = Bank::new(b"wb");
        let user = GridIdentity::swegrid_user(1);
        let broker = GridIdentity::from_dn("/O=Grid/CN=broker");
        let ua = bank.open_account(user.public_key(), "u");
        let ba = bank.open_account(broker.public_key(), "b");
        bank.mint(ua, Credits::from_whole(500)).unwrap();
        let token = fund_token(&mut bank, &user, ua, ba, Credits::from_whole(100)).unwrap();

        let w = BioWorkload::paper_default();
        let spec = bio_job_spec(&w, &token, "bio-run").unwrap();
        assert_eq!(spec.xrsl.get_str("count"), Some("15"));
        assert_eq!(spec.xrsl.get_str("cputime"), Some("330 minutes"));
        let parsed = TransferToken::from_hex(spec.xrsl.get_str("transfertoken").unwrap()).unwrap();
        assert_eq!(parsed, token);
        assert!(parsed.verify(&bank, ba).is_ok());
    }

    #[test]
    fn fund_token_fails_without_funds() {
        let mut bank = Bank::new(b"wb2");
        let user = GridIdentity::swegrid_user(2);
        let broker = GridIdentity::from_dn("/O=Grid/CN=broker");
        let ua = bank.open_account(user.public_key(), "u");
        let ba = bank.open_account(broker.public_key(), "b");
        assert!(fund_token(&mut bank, &user, ua, ba, Credits::from_whole(10)).is_err());
    }
}
