//! Provenance stamped on every result: seed, config digests, source
//! revision and machine fingerprint. Two results are comparable only when
//! their fingerprints match.

use serde::{Deserialize, Serialize};

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Where a result came from.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `label=fnv1a(GridConfig::to_json())` for every generated config.
    pub config_digests: Vec<String>,
    /// Source revision, or `"unknown"` outside a git checkout.
    pub git_rev: String,
    /// Available parallelism of the measuring machine.
    pub nproc: usize,
    /// CPU model string of the measuring machine.
    pub cpu_model: String,
    /// `fnv1a(cpu_model|nproc)`: results with different fingerprints were
    /// measured on different machines and are never compared.
    pub fingerprint: String,
}

impl Provenance {
    /// Stamp a run on this machine.
    pub fn here(workload: &str, seed: u64, trace: bool, config_digests: Vec<String>) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = cpu_model();
        Provenance {
            workload: workload.to_string(),
            seed,
            trace,
            config_digests,
            git_rev: git_rev(),
            nproc,
            fingerprint: fingerprint(&cpu_model, nproc),
            cpu_model,
        }
    }
}

/// Whether results with provenances `a` and `b` may be compared: same
/// machine fingerprint, same workload, same metric set.
pub fn comparable(a: &Provenance, b: &Provenance) -> Result<(), String> {
    if a.fingerprint != b.fingerprint {
        return Err(format!(
            "refusing to compare across machines: {} ({} x{}) vs {} ({} x{})",
            a.fingerprint, a.cpu_model, a.nproc, b.fingerprint, b.cpu_model, b.nproc
        ));
    }
    if a.workload != b.workload || a.trace != b.trace {
        return Err("refusing to compare different workloads or metric sets".into());
    }
    Ok(())
}

/// The machine fingerprint of a CPU model and core count.
pub fn fingerprint(cpu_model: &str, nproc: usize) -> String {
    format!("{:016x}", fnv1a(format!("{cpu_model}|{nproc}").as_bytes()))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git. Source exports carry no `.git` and report
/// `"unknown"`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn comparisons_across_machines_are_refused() {
        let here = Provenance::here("lan-npb", 1, false, vec![]);
        let mut other_seed = here.clone();
        other_seed.seed = 2;
        assert_eq!(comparable(&here, &other_seed), Ok(()));
        let mut elsewhere = here.clone();
        elsewhere.nproc += 1;
        elsewhere.fingerprint = fingerprint(&elsewhere.cpu_model, elsewhere.nproc);
        assert!(comparable(&here, &elsewhere)
            .unwrap_err()
            .contains("across machines"));
        let mut traced = here.clone();
        traced.trace = true;
        assert!(comparable(&here, &traced).is_err());
    }

    #[test]
    fn fingerprint_separates_machines() {
        assert_eq!(fingerprint("cpu", 2), fingerprint("cpu", 2));
        assert_ne!(fingerprint("cpu", 2), fingerprint("cpu", 4));
        assert_ne!(fingerprint("cpu", 2), fingerprint("other", 2));
    }
}
