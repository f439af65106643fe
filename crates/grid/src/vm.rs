//! Virtual machine lifecycle management.
//!
//! Tycoon virtualizes hosts (Xen in the paper, §2.2): each (host, user)
//! pair gets at most one VM — the experiment setup restricts "one virtual
//! machine per user per physical machine" (§5.2). VM creation costs time
//! (boot + yum-installing the xRSL `runTimeEnvironment`s, §3), and "a user
//! may reuse the same virtual machine between jobs submitted on the same
//! physical host" to avoid paying that cost twice.

use std::collections::{BTreeMap, BTreeSet};

use gm_des::{SimDuration, SimTime};
use gm_tycoon::{HostId, UserId};

/// Identifier of a virtual machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VmId(pub u64);

/// Timing parameters of VM provisioning.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Time to create and boot a fresh VM.
    pub create_latency: SimDuration,
    /// Additional time to install one runtime environment (yum).
    pub env_install_latency: SimDuration,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            create_latency: SimDuration::from_secs(60),
            env_install_latency: SimDuration::from_secs(30),
        }
    }
}

/// A provisioned virtual machine.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Unique id.
    pub id: VmId,
    /// Physical host it runs on.
    pub host: HostId,
    /// Owning market user.
    pub user: UserId,
    /// When the VM (including env installs) becomes usable.
    pub ready_at: SimTime,
    /// Installed runtime environments.
    pub envs: BTreeSet<String>,
    /// Number of jobs that have used this VM (reuse counter).
    pub jobs_served: u32,
}

/// Manages all VMs in the virtual cluster.
pub struct VmManager {
    config: VmConfig,
    vms: BTreeMap<(HostId, UserId), Vm>,
    next_id: u64,
    total_created: u64,
}

impl VmManager {
    /// New manager with the given provisioning config.
    pub fn new(config: VmConfig) -> VmManager {
        VmManager {
            config,
            vms: BTreeMap::new(),
            next_id: 0,
            total_created: 0,
        }
    }

    /// Acquire a VM for `(host, user)` with the required `envs`,
    /// creating or upgrading as needed. Returns the time the VM will be
    /// ready (new creations and env installs push it into the future).
    pub fn acquire(
        &mut self,
        host: HostId,
        user: UserId,
        envs: &[String],
        now: SimTime,
    ) -> SimTime {
        match self.vms.get_mut(&(host, user)) {
            Some(vm) => {
                // Reuse; install any missing environments.
                let missing: Vec<&String> = envs.iter().filter(|e| !vm.envs.contains(*e)).collect();
                if !missing.is_empty() {
                    let extra = self.config.env_install_latency * missing.len() as u64;
                    let base = vm.ready_at.max(now);
                    vm.ready_at = base + extra;
                    for e in missing {
                        vm.envs.insert(e.clone());
                    }
                }
                vm.jobs_served += 1;
                vm.ready_at
            }
            None => {
                let ready_at = now
                    + self.config.create_latency
                    + self.config.env_install_latency * envs.len() as u64;
                let vm = Vm {
                    id: VmId(self.next_id),
                    host,
                    user,
                    ready_at,
                    envs: envs.iter().cloned().collect(),
                    jobs_served: 1,
                };
                self.next_id += 1;
                self.total_created += 1;
                self.vms.insert((host, user), vm);
                ready_at
            }
        }
    }

    /// Look up the VM of a (host, user) pair.
    pub fn get(&self, host: HostId, user: UserId) -> Option<&Vm> {
        self.vms.get(&(host, user))
    }

    /// Current number of live VMs (= virtual CPUs advertised by the ARC
    /// monitor, Fig. 2).
    pub fn live_vms(&self) -> usize {
        self.vms.len()
    }

    /// Kill every VM on a crashed host. Returns the owning
    /// users of the destroyed VMs in deterministic order — the job layer
    /// uses this to find the subjobs that just lost their machine. The
    /// next `acquire` on the host pays a full boot again.
    pub fn fail_host(&mut self, host: HostId) -> Vec<UserId> {
        let users: Vec<UserId> = self
            .vms
            .keys()
            .filter(|(h, _)| *h == host)
            .map(|(_, u)| *u)
            .collect();
        for u in &users {
            self.vms.remove(&(host, *u));
        }
        users
    }

    /// Kill a single VM (fault injection: VM-level failure while the host
    /// stays up). Returns `true` if one existed.
    pub fn fail_vm(&mut self, host: HostId, user: UserId) -> bool {
        self.vms.remove(&(host, user)).is_some()
    }

    /// Live VMs on one host.
    pub fn vms_on_host(&self, host: HostId) -> usize {
        self.vms.keys().filter(|(h, _)| *h == host).count()
    }

    /// Total VMs ever created (reuse keeps this low).
    pub fn total_created(&self) -> u64 {
        self.total_created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> VmManager {
        VmManager::new(VmConfig::default())
    }

    fn envs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn creation_takes_boot_plus_env_time() {
        let mut m = mgr();
        let t0 = SimTime::from_secs(100);
        let ready = m.acquire(HostId(0), UserId(1), &envs(&["BLAST"]), t0);
        assert_eq!(ready, t0 + SimDuration::from_secs(90)); // 60 boot + 30 env
        assert_eq!(m.live_vms(), 1);
        assert_eq!(m.total_created(), 1);
    }

    #[test]
    fn reuse_is_instant_when_envs_match() {
        let mut m = mgr();
        let t0 = SimTime::from_secs(0);
        m.acquire(HostId(0), UserId(1), &envs(&["BLAST"]), t0);
        let t1 = SimTime::from_secs(1000);
        let ready = m.acquire(HostId(0), UserId(1), &envs(&["BLAST"]), t1);
        assert_eq!(ready, SimTime::from_secs(90), "already ready in the past");
        assert!(ready < t1);
        assert_eq!(m.total_created(), 1, "no new VM created");
        assert_eq!(m.get(HostId(0), UserId(1)).unwrap().jobs_served, 2);
    }

    #[test]
    fn reuse_with_new_env_installs_it() {
        let mut m = mgr();
        m.acquire(HostId(0), UserId(1), &envs(&["BLAST"]), SimTime::ZERO);
        let t1 = SimTime::from_secs(500);
        let ready = m.acquire(HostId(0), UserId(1), &envs(&["BLAST", "R"]), t1);
        assert_eq!(ready, t1 + SimDuration::from_secs(30));
        let vm = m.get(HostId(0), UserId(1)).unwrap();
        assert!(vm.envs.contains("R") && vm.envs.contains("BLAST"));
    }

    #[test]
    fn distinct_users_get_distinct_vms_on_same_host() {
        let mut m = mgr();
        m.acquire(HostId(0), UserId(1), &[], SimTime::ZERO);
        m.acquire(HostId(0), UserId(2), &[], SimTime::ZERO);
        assert_eq!(m.live_vms(), 2);
        assert_eq!(m.vms_on_host(HostId(0)), 2);
        assert_eq!(m.vms_on_host(HostId(1)), 0);
        assert_ne!(
            m.get(HostId(0), UserId(1)).unwrap().id,
            m.get(HostId(0), UserId(2)).unwrap().id
        );
    }

    #[test]
    fn fail_host_kills_every_vm_on_it() {
        let mut m = mgr();
        m.acquire(HostId(0), UserId(1), &[], SimTime::ZERO);
        m.acquire(HostId(0), UserId(2), &[], SimTime::ZERO);
        m.acquire(HostId(1), UserId(1), &[], SimTime::ZERO);
        let victims = m.fail_host(HostId(0));
        assert_eq!(victims, vec![UserId(1), UserId(2)]);
        assert_eq!(m.vms_on_host(HostId(0)), 0);
        assert_eq!(m.vms_on_host(HostId(1)), 1);
        // Recreation after the crash pays a full boot.
        let t = SimTime::from_secs(100);
        let ready = m.acquire(HostId(0), UserId(1), &[], t);
        assert_eq!(ready, t + SimDuration::from_secs(60));
    }

    #[test]
    fn fail_vm_kills_only_that_vm() {
        let mut m = mgr();
        m.acquire(HostId(0), UserId(1), &[], SimTime::ZERO);
        m.acquire(HostId(0), UserId(2), &[], SimTime::ZERO);
        assert!(m.fail_vm(HostId(0), UserId(1)));
        assert!(!m.fail_vm(HostId(0), UserId(1)), "already dead");
        assert_eq!(m.live_vms(), 1);
    }

    #[test]
    fn no_env_vm_boots_in_base_latency() {
        let mut m = mgr();
        let ready = m.acquire(HostId(3), UserId(9), &[], SimTime::ZERO);
        assert_eq!(ready, SimTime::from_secs(60));
    }
}
