//! Helpers the engine-level test files share: a seeded LCG, a random
//! write workload acknowledged in, and checked against, the
//! acknowledged-state oracle, and a power cut whose recovery is checked
//! against the reference GeckoRec ([`reference`]).

pub mod reference;

use flash_sim::Lpn;
use ftl_workloads::Oracle;
use geckoftl_core::ftl::FtlEngine;
use geckoftl_core::recovery::{gecko_recover, RecoveryReport};

/// Deterministic LCG so tests don't need a rand dependency here.
pub struct Lcg(pub u64);
impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Write `n` uniformly random LPNs, each acknowledged in `oracle`. The
/// version is the device's sequence number before the write, which no other
/// write on the device takes, in this call or any other: a superseded copy
/// never reads back as the version expected. With `read_back`, after each
/// write one draw in four reads a random LPN and checks it against the
/// oracle.
pub fn run_workload(
    engine: &mut FtlEngine,
    oracle: &mut Oracle,
    rng: &mut Lcg,
    n: u64,
    read_back: bool,
) {
    let logical = engine.geometry().logical_pages();
    for _ in 0..n {
        let lpn = Lpn((rng.next() % logical) as u32);
        let version = engine.device().now_seq();
        engine.write(lpn, version);
        oracle.ack_write(lpn, version);
        if read_back && rng.next().is_multiple_of(4) {
            let read_lpn = Lpn((rng.next() % logical) as u32);
            let got = engine.read(read_lpn);
            assert_eq!(
                got,
                oracle.expected(read_lpn),
                "read-your-writes for {read_lpn:?}"
            );
        }
    }
}

/// Cut the power to `engine` (all RAM state is dropped) and recover it with
/// GeckoRec, after checking GeckoRec against the reference on a clone of
/// the image ([`reference::check_recovery`]).
pub fn crash_and_recover(engine: FtlEngine) -> (FtlEngine, RecoveryReport) {
    let cfg = engine.config();
    let gecko_cfg = engine.backend().gecko_config().expect("gecko backend");
    let image = engine.crash();
    reference::check_recovery(&image, cfg, gecko_cfg);
    gecko_recover(image, cfg, gecko_cfg)
}

/// Read every LPN back and check it against the oracle.
pub fn verify_all(engine: &mut FtlEngine, oracle: &Oracle) {
    assert_eq!(oracle.verify(|lpn| engine.read(lpn)), Ok(()), "post-check");
}
