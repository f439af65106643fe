//! Hot-path microbenchmarks across the substrate crates.

use gm_bench::Harness;
use gm_crypto::{hmac_sha256, sha256, Keypair};
use gm_des::{Pcg32, Rng64};
use gm_numeric::norm_quantile;
use gm_numeric::spline::smoothing_spline;
use gm_numeric::toeplitz::yule_walker;
use gm_predict::SlotTable;
use gm_tycoon::{best_response, Auctioneer, Credits, HostId, HostQuote, HostSpec, UserId};
use std::hint::black_box;

fn bench_best_response(h: &Harness) {
    for n in [4usize, 16, 64, 256] {
        let mut rng = Pcg32::seed_from_u64(n as u64);
        let quotes: Vec<HostQuote> = (0..n)
            .map(|i| HostQuote {
                host: HostId(i as u32),
                weight: 1000.0 + rng.next_f64() * 4000.0,
                others_rate: 0.001 + rng.next_f64(),
            })
            .collect();
        h.bench(&format!("best_response/{n}"), || {
            best_response(&quotes, 5.0, usize::MAX)
        });
    }
}

fn bench_auctioneer(h: &Harness) {
    h.bench("auctioneer_allocate_50_bids", || {
        let mut a = Auctioneer::new(HostSpec::testbed(0));
        for i in 0..50 {
            a.place_bid(UserId(i), 0.01 + i as f64 * 1e-4, Credits::from_whole(1000));
        }
        a.allocate(10.0)
    });
}

fn bench_crypto(h: &Harness) {
    let data_1k = vec![0xabu8; 1024];
    let data_64k = vec![0xcdu8; 64 * 1024];
    h.bench("sha256_1KiB", || sha256(&data_1k));
    h.bench("sha256_64KiB", || sha256(&data_64k));
    h.bench("hmac_sha256_1KiB", || hmac_sha256(b"key", &data_1k));
    h.bench("schnorr_keygen", || Keypair::from_seed(b"bench"));
    let keys = Keypair::from_seed(b"bench");
    let msg = b"transfer 100 credits to the resource broker";
    h.bench("schnorr_sign", || keys.sign(msg));
    let sig = keys.sign(msg);
    h.bench("schnorr_verify", || keys.public.verify(msg, &sig));
    h.bench("schnorr_prepare", || keys.public.prepare());
    let prepared = keys.public.prepare();
    h.bench("schnorr_verify_prepared", || prepared.verify(msg, &sig));
}

fn bench_numeric(h: &Harness) {
    let mut rng = Pcg32::seed_from_u64(1);
    let series: Vec<f64> = (0..4096).map(|_| rng.next_f64()).collect();
    h.bench("yule_walker_ar6_4096", || yule_walker(&series, 6));
    h.bench("smoothing_spline_4096", || smoothing_spline(&series, 100.0));
    h.bench("norm_quantile", || norm_quantile(black_box(0.95)));
    h.bench("slot_table_add_1000", || {
        let mut t = SlotTable::new(16, 0.5);
        for i in 0..1000 {
            t.add((i % 97) as f64 * 0.03);
        }
        t
    });
}

fn main() {
    let h = Harness::new();
    bench_best_response(&h);
    bench_auctioneer(&h);
    bench_crypto(&h);
    bench_numeric(&h);
}
