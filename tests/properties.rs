//! Property-based tests over the core invariants, on the in-repo
//! `gm_des::check` harness (seeded, deterministic, replayable: a failure
//! prints the exact `Gen::new(seed)` to reproduce the case).

use gridmarket::des::check::{check, Gen};
use gridmarket::des::{Pcg32, Rng64, SimTime};
use gridmarket::numeric::{levinson_durbin, smoothing_spline, Histogram, Matrix};
use gridmarket::predict::SlotTable;
use gridmarket::tycoon::{
    best_response, utility, Bank, Credits, HostId, HostQuote, HostSpec, Market, UserId,
};

/// Bank transfers never create or destroy money, regardless of the
/// operation sequence.
#[test]
fn bank_conserves_money() {
    check("bank_conserves_money", 192, |g| {
        let ops = g.vec_with(1, 60, |g| {
            (
                g.u64_in(0, 3) as u8,
                g.usize_in(0, 3),
                g.usize_in(0, 3),
                g.i64_in(1, 499),
            )
        });
        let mut bank = Bank::new(b"prop");
        let keys = gm_crypto::Keypair::from_seed(b"owner");
        let accounts: Vec<_> = (0..4)
            .map(|i| bank.open_account(keys.public, &format!("a{i}")))
            .collect();
        let mut minted = Credits::ZERO;
        for a in &accounts {
            bank.mint(*a, Credits::from_whole(1000)).unwrap();
            minted += Credits::from_whole(1000);
        }
        for (op, from, to, amount) in ops {
            let amount = Credits::from_whole(amount);
            match op {
                0..=2 => {
                    let _ = bank.transfer(accounts[from], accounts[to], amount);
                }
                _ => {
                    let _ = bank.open_sub_account(accounts[from], keys.public, "sub", amount);
                }
            }
        }
        assert_eq!(bank.total_money(), minted);
    });
}

/// Best Response output always satisfies the budget constraint and is
/// never beaten by random feasible alternatives.
#[test]
fn best_response_is_feasible_and_unbeaten() {
    check("best_response_is_feasible_and_unbeaten", 192, |g| {
        let n = g.usize_in(1, 7);
        let quotes: Vec<HostQuote> = (0..n)
            .map(|i| HostQuote {
                host: HostId(i as u32),
                weight: g.f64_in(1.0, 5000.0),
                others_rate: g.f64_in(1e-6, 10.0),
            })
            .collect();
        let budget = g.f64_in(1e-3, 100.0);
        let seed = g.u64_in(0, 999);

        let bids = best_response(&quotes, budget, usize::MAX);
        let total: f64 = bids.iter().map(|(_, x)| x).sum();
        assert!(
            (total - budget).abs() < 1e-6 * budget.max(1.0),
            "budget violated: {total} vs {budget}"
        );
        for (_, x) in &bids {
            assert!(*x > 0.0);
        }

        // Compare against random simplex points.
        let mut x_star = vec![0.0; n];
        for (h, b) in &bids {
            x_star[quotes.iter().position(|q| q.host == *h).unwrap()] = *b;
        }
        let u_star = utility(&x_star, &quotes);
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..30 {
            let mut alt: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let s: f64 = alt.iter().sum();
            if s <= 0.0 {
                continue;
            }
            for a in alt.iter_mut() {
                *a *= budget / s;
            }
            let u_alt = utility(&alt, &quotes);
            assert!(
                u_alt <= u_star + 1e-7 * u_star.abs().max(1.0),
                "random bid beats best response: {u_alt} > {u_star}"
            );
        }
    });
}

/// The proportional-share auctioneer conserves escrow + income exactly.
#[test]
fn auctioneer_conserves_credits() {
    check("auctioneer_conserves_credits", 256, |g| {
        let bids = g.vec_with(1, 10, |g| {
            (g.u64_in(1, 4) as u32, g.f64_in(1e-4, 2.0), g.i64_in(1, 99))
        });
        let intervals = g.usize_in(1, 19);
        let mut a = gridmarket::tycoon::Auctioneer::new(HostSpec::testbed(0));
        let mut deposited = Credits::ZERO;
        let mut handles = Vec::new();
        for (user, rate, escrow) in bids {
            let escrow = Credits::from_whole(escrow);
            deposited += escrow;
            handles.push(a.place_bid(UserId(user), rate, escrow));
        }
        for _ in 0..intervals {
            for alloc in a.allocate(10.0) {
                assert!(alloc.share >= 0.0 && alloc.share <= 1.0);
                assert!(alloc.capacity_mhz >= 0.0);
            }
        }
        let remaining: Credits = handles.iter().filter_map(|h| a.escrow(*h)).sum();
        assert_eq!(remaining + a.earned(), deposited);
    });
}

/// Shares on a host always sum to ≤ 1 and are proportional to rates.
#[test]
fn shares_sum_to_at_most_one() {
    check("shares_sum_to_at_most_one", 256, |g| {
        let rates = g.vec_with(1, 12, |g| g.f64_in(1e-4, 5.0));
        let mut a = gridmarket::tycoon::Auctioneer::new(HostSpec::testbed(0));
        for (i, r) in rates.iter().enumerate() {
            a.place_bid(UserId(i as u32), *r, Credits::from_whole(1000));
        }
        let allocs = a.allocate(10.0);
        let total: f64 = allocs.iter().map(|x| x.share).sum();
        assert!(total <= 1.0 + 1e-9, "shares sum {total}");
        // Proportionality: share_i / share_j == rate_i / rate_j.
        if allocs.len() >= 2 {
            let r0 = allocs[0].share / rates[0];
            for (k, al) in allocs.iter().enumerate() {
                assert!((al.share / rates[k] - r0).abs() < 1e-9);
            }
        }
    });
}

/// Market-level invariant: placing/cancelling funded bids keeps the bank
/// books balanced.
#[test]
fn market_bid_lifecycle_conserves() {
    check("market_bid_lifecycle_conserves", 192, |g| {
        let actions = g.vec_with(1, 30, |g| {
            (
                g.u64_in(0, 2) as u8,
                g.u64_in(0, 2) as u32,
                g.f64_in(1e-3, 1.0),
                g.i64_in(1, 49),
            )
        });
        let mut market = Market::new(b"propmkt");
        for i in 0..3 {
            market.add_host(HostSpec::testbed(i));
        }
        let key = gm_crypto::Keypair::from_seed(b"u").public;
        let acct = market.bank_mut().open_account(key, "payer");
        market
            .bank_mut()
            .mint(acct, Credits::from_whole(100_000))
            .unwrap();
        let mut live: Vec<(HostId, gridmarket::tycoon::BidHandle)> = Vec::new();
        let mut now = 0u64;
        for (op, host, rate, escrow) in actions {
            let host = HostId(host);
            match op {
                0 => {
                    if let Ok(h) =
                        market.place_funded_bid(UserId(1), acct, host, rate, Credits::from_whole(escrow))
                    {
                        live.push((host, h));
                    }
                }
                1 => {
                    if let Some((h, b)) = live.pop() {
                        let _ = market.cancel_bid(h, b, acct);
                    }
                }
                _ => {
                    now += 10;
                    market.tick(SimTime::from_secs(now));
                    live.retain(|(h, b)| {
                        market.auctioneer(*h).is_some_and(|a| a.escrow(*b).is_some())
                    });
                }
            }
            assert_eq!(market.bank().total_money(), Credits::from_whole(100_000));
        }
    });
}

/// SHA-256 streaming equals one-shot for arbitrary chunkings.
#[test]
fn sha256_streaming_equivalence() {
    check("sha256_streaming_equivalence", 256, |g| {
        let data = g.bytes(0, 2000);
        let cut = g.usize_in(0, data.len());
        let one = gm_crypto::sha256(&data);
        let mut h = gm_crypto::Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize(), one);
    });
}

/// Signature round trip for arbitrary messages/seeds; cross-key
/// verification always fails.
#[test]
fn signatures_verify_only_with_right_key() {
    check("signatures_verify_only_with_right_key", 128, |g| {
        let msg = g.bytes(0, 256);
        let s1 = g.u64();
        let s2 = g.u64();
        if s1 == s2 {
            return;
        }
        let k1 = gm_crypto::Keypair::from_seed(&s1.to_be_bytes());
        let k2 = gm_crypto::Keypair::from_seed(&s2.to_be_bytes());
        let sig = k1.sign(&msg);
        assert!(k1.public.verify(&msg, &sig));
        assert!(!k2.public.verify(&msg, &sig));
    });
}

/// Field arithmetic: (a·b)·c == a·(b·c) and a·(b+c) == a·b + a·c.
#[test]
fn field_ring_axioms() {
    check("field_ring_axioms", 256, |g| {
        use gm_crypto::field;
        let wide = |g: &mut Gen| ((g.u64() as u128) << 64 | g.u64() as u128) % field::P;
        let (a, b, c) = (wide(g), wide(g), wide(g));
        assert_eq!(
            field::mul(field::mul(a, b), c),
            field::mul(a, field::mul(b, c))
        );
        assert_eq!(
            field::mul(a, field::add(b, c)),
            field::add(field::mul(a, b), field::mul(a, c))
        );
        assert_eq!(field::mul(a, 1), a);
        assert_eq!(field::add(a, field::sub(b, a)), b % field::P);
    });
}

/// Slot tables never lose samples through range doublings.
#[test]
fn slot_table_preserves_counts() {
    check("slot_table_preserves_counts", 256, |g| {
        let prices = g.vec_with(1, 200, |g| g.f64_in(0.0, 1e6));
        let mut t = SlotTable::new(8, 0.5);
        for &p in &prices {
            t.add(p);
        }
        assert_eq!(t.total(), prices.len() as u64);
        let counted: u64 = t.counts().iter().sum();
        assert_eq!(counted, prices.len() as u64);
        let s: f64 = t.proportions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    });
}

/// Histogram proportions always form a distribution.
#[test]
fn histogram_is_distribution() {
    check("histogram_is_distribution", 256, |g| {
        let xs = g.vec_with(1, 200, |g| g.f64_in(-100.0, 100.0));
        let bins = g.usize_in(1, 31);
        let h = Histogram::from_samples(-50.0, 50.0, bins, &xs);
        assert_eq!(h.total(), xs.len() as u64);
        let s: f64 = h.proportions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    });
}

/// Levinson-Durbin agrees with a dense LU solve of the same Toeplitz
/// system on positive-definite inputs (biased autocovariances of a random
/// series are always PSD).
#[test]
fn levinson_matches_dense_solve() {
    check("levinson_matches_dense_solve", 128, |g| {
        let seed = g.u64();
        let order = g.usize_in(1, 5);
        let mut rng = Pcg32::seed_from_u64(seed);
        let series: Vec<f64> = (0..200).map(|_| rng.next_f64() * 10.0).collect();
        let r = gridmarket::numeric::toeplitz::autocorrelations_biased(&series, order);
        if r[0] <= 1e-9 {
            return;
        }
        if let Some((a, e)) = levinson_durbin(&r) {
            if e <= 1e-9 {
                return; // skip clamped/degenerate recursions
            }
            let k = order;
            let mut m = Matrix::zeros(k, k);
            for i in 0..k {
                for j in 0..k {
                    m[(i, j)] = r[(i as isize - j as isize).unsigned_abs()];
                }
            }
            if let Some(x) = m.solve(&r[1..]) {
                for (ai, xi) in a.iter().zip(&x) {
                    assert!((ai - xi).abs() < 1e-6, "{ai} vs {xi}");
                }
            }
        }
    });
}

/// The smoothing spline is a smoother: it never increases total roughness,
/// and λ=0 is the identity.
#[test]
fn spline_never_roughens() {
    check("spline_never_roughens", 192, |g| {
        let ys = g.vec_with(3, 100, |g| g.f64_in(-10.0, 10.0));
        let lambda = g.f64_in(0.0, 1e4);
        let rough = |v: &[f64]| -> f64 {
            v.windows(3)
                .map(|w| {
                    let d = w[0] - 2.0 * w[1] + w[2];
                    d * d
                })
                .sum()
        };
        let z = smoothing_spline(&ys, lambda);
        assert_eq!(z.len(), ys.len());
        assert!(rough(&z) <= rough(&ys) + 1e-9);
        let id = smoothing_spline(&ys, 0.0);
        assert_eq!(id, ys);
    });
}

/// xRSL built from arbitrary attribute/value strings round-trips through
/// the printer and parser.
#[test]
fn xrsl_round_trips() {
    check("xrsl_round_trips", 192, |g| {
        use gridmarket::grid::Xrsl;
        let ident = |g: &mut Gen| -> String {
            const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
            const TAIL: &[u8] =
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
            let mut s = String::new();
            s.push(*g.choose(HEAD) as char);
            for _ in 0..g.usize_in(0, 15) {
                s.push(*g.choose(TAIL) as char);
            }
            s
        };
        // Printable ASCII minus '"' and '\'.
        let value = |g: &mut Gen| -> String {
            g.vec_with(0, 40, |g| loop {
                let c = g.u64_in(0x20, 0x7e) as u8 as char;
                if c != '"' && c != '\\' {
                    return c;
                }
            })
            .into_iter()
            .collect()
        };
        let attrs = g.vec_with(1, 10, |g| (ident(g), value(g)));
        // set_str replaces earlier values: dedupe on lowercased name,
        // keeping the last write (names are case-insensitive in xRSL).
        let mut unique: std::collections::BTreeMap<String, String> = Default::default();
        for (name, value) in &attrs {
            unique.insert(name.to_ascii_lowercase(), value.clone());
        }
        let mut x = Xrsl::default();
        for (name, value) in &unique {
            x.set_str(name, value);
        }
        let text = x.to_text();
        let back = Xrsl::parse(&text).expect("printer output must parse");
        for (name, value) in &unique {
            assert_eq!(back.get_str(name), Some(value.as_str()));
        }
    });
}

/// Transfer tokens round-trip hex encoding for arbitrary amounts and
/// DN-ish strings, and still verify afterwards.
#[test]
fn token_hex_round_trips() {
    check("token_hex_round_trips", 96, |g| {
        use gridmarket::grid::{GridIdentity, TransferToken};
        let amount = g.i64_in(1, 999_999);
        let user_n = g.u64_in(1, 999) as u32;
        let mut bank = Bank::new(b"prop-token");
        let user = GridIdentity::swegrid_user(user_n);
        let broker = GridIdentity::from_dn("/O=Grid/CN=broker");
        let ua = bank.open_account(user.public_key(), "u");
        let ba = bank.open_account(broker.public_key(), "b");
        bank.mint(ua, Credits::from_whole(2_000_000)).unwrap();
        let receipt = bank.transfer(ua, ba, Credits::from_whole(amount)).unwrap();
        let token = TransferToken::create(&user, receipt, user.dn());
        let back = TransferToken::from_hex(&token.to_hex()).expect("decode");
        assert_eq!(&back, &token);
        assert!(back.verify(&bank, ba).is_ok());
    });
}

/// The dual-window distribution is always a probability distribution once
/// samples exist, for arbitrary window sizes and price streams.
#[test]
fn dual_window_stays_normalized() {
    check("dual_window_stays_normalized", 128, |g| {
        use gridmarket::predict::DualWindowDistribution;
        let window = g.u64_in(1, 49);
        let prices = g.vec_with(1, 300, |g| g.f64_in(0.0, 1e5));
        let mut d = DualWindowDistribution::new(window, 8, 0.5);
        for &p in &prices {
            d.add(p);
            let s: f64 = d.proportions().iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "sum {s}");
        }
    });
}

/// Moving smoothed moments never produce NaN and the smoothed mean stays
/// within the observed range.
#[test]
fn smoothed_moments_stay_bounded() {
    check("smoothed_moments_stay_bounded", 192, |g| {
        use gridmarket::numeric::stats::SmoothedMoments;
        let window = g.usize_in(1, 99);
        let xs = g.vec_with(1, 200, |g| g.f64_in(0.0, 1e6));
        let mut sm = SmoothedMoments::new(window);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &xs {
            sm.push(x);
            lo = lo.min(x);
            hi = hi.max(x);
            let m = sm.mean().unwrap();
            assert!(m.is_finite());
            assert!(m >= lo - 1e-9 && m <= hi + 1e-9, "mean {m} outside [{lo}, {hi}]");
            assert!(sm.std_dev().unwrap().is_finite());
        }
    });
}

/// Credits float round trip is exact at micro precision.
#[test]
fn credits_round_trip() {
    check("credits_round_trip", 256, |g| {
        let micros = g.i64_in(-1_000_000_000_000, 1_000_000_000_000);
        let c = Credits::from_micros(micros);
        assert_eq!(Credits::from_f64(c.as_f64()).as_micros(), micros);
    });
}

/// A few byte-level edits of `bytes`: bit flips, overwrites, inserts,
/// deletions, a truncation, or a run of `0xff` (a huge length field).
fn mutate_bytes(g: &mut Gen, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..g.usize_in(1, 4) {
        let at = g.usize_in(0, out.len());
        match g.u64_in(0, 5) {
            0 if at < out.len() => out[at] ^= 1 << g.u64_in(0, 7),
            1 if at < out.len() => out[at] = g.u64_in(0, 255) as u8,
            2 => out.insert(at, g.u64_in(0, 255) as u8),
            3 if at < out.len() => {
                out.remove(at);
            }
            4 => out.truncate(at),
            _ => {
                for _ in 0..g.usize_in(1, 8) {
                    out.insert(at, 0xff);
                }
            }
        }
    }
    out
}

/// The journal payloads of a live bank: one WAL record of every
/// `BankEvent` kind, and the bank's snapshot.
fn bank_payloads() -> (Vec<Vec<u8>>, Vec<u8>) {
    let journal = gm_ledger::SharedJournal::new();
    let mut bank = Bank::new(b"codec-fuzz");
    bank.attach_ledger(journal.clone());
    let owner = gm_crypto::Keypair::from_seed(b"owner").public;
    let payer = bank.open_account(owner, "payer");
    bank.mint(payer, Credits::from_whole(100)).expect("mint");
    let (job, _) = bank
        .open_sub_account(payer, owner, "job", Credits::from_whole(40))
        .expect("sub-account");
    let receipt = bank
        .transfer(job, payer, Credits::from_whole(3))
        .expect("transfer");
    bank.record_token_spend(receipt.transfer_id);
    bank.record_request_applied(42);
    let records = journal.replay().expect("replay").records;
    (records, bank.snapshot().encode())
}

/// Journal frames are checksummed, not authenticated, so the bank codecs
/// see arbitrary bytes on recovery: a mutated valid payload decodes to
/// `None` or to a value that re-encodes to exactly those bytes (the
/// encoding is canonical), and never panics.
#[test]
fn bank_codecs_survive_mutated_payloads() {
    use gridmarket::tycoon::{BankEvent, BankSnapshot};
    let (events, snapshot) = bank_payloads();
    let kinds: std::collections::BTreeSet<u8> = events.iter().map(|e| e[0]).collect();
    assert_eq!(kinds.len(), 5, "one record of every event kind");
    assert!(events.iter().all(|e| BankEvent::decode(e).is_some()));
    assert!(BankSnapshot::decode(&snapshot).is_some());
    check("bank_codecs_survive_mutated_payloads", 384, |g| {
        let base = g.choose(&events).clone();
        let event = mutate_bytes(g, &base);
        if let Some(decoded) = BankEvent::decode(&event) {
            assert_eq!(decoded.encode(), event, "{decoded:?} is not canonical");
        }
        let snap = mutate_bytes(g, &snapshot);
        if let Some(decoded) = BankSnapshot::decode(&snap) {
            assert_eq!(decoded.encode(), snap, "{decoded:?} is not canonical");
        }
    });
}

/// Character-level edits that keep the text valid UTF-8: deletions, a
/// truncation, and inserts of xRSL punctuation, units, non-ASCII, runs
/// of up to 20 digits (numbers past `u64`), or printable characters.
fn mutate_text(g: &mut Gen, text: &str) -> String {
    const TOKENS: [&str; 13] = [
        "(", ")", "&", "|", "=", "\"", "(*", "*)", " ", ".", "-1", " hours", "é∞",
    ];
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..g.usize_in(1, 4) {
        let at = g.usize_in(0, chars.len());
        let insert: Vec<char> = match g.u64_in(0, 4) {
            0 if at < chars.len() => {
                chars.remove(at);
                continue;
            }
            1 => {
                chars.truncate(at);
                continue;
            }
            2 => g.choose(&TOKENS).chars().collect(),
            3 => g.vec_with(1, 20, |g| char::from(b'0' + g.u64_in(0, 9) as u8)),
            _ => vec![g.u64_in(0x20, 0x7e) as u8 as char],
        };
        chars.splice(at..at, insert);
    }
    chars.into_iter().collect()
}

/// Job descriptions arrive as user text: the xRSL parser and the
/// duration parser return `Ok`/`Err` (`Some`/`None`) on any mutation of
/// a valid document or duration, and never panic.
#[test]
fn xrsl_parsers_survive_mutated_text() {
    use gridmarket::grid::xrsl::parse_duration_secs;
    use gridmarket::grid::Xrsl;
    const DOCS: [&str; 3] = [
        "&(executable=\"blast_scan.sh\")(jobName=\"proteome-chunk-search\")(count=15)\
         (cpuTime=\"330 minutes\")(runTimeEnvironment=\"APPS/BIO/BLAST-2.2\")",
        "&(* a comment *)(arguments=\"say \"\"hi\"\"\")(inputFiles=(\"a\" \"b\"))(wallTime=\"2 hours\")",
        "&(count=3)(cpuTime=\"180\")(runtimeenvironment=\"A\")(runtimeenvironment=\"B\")",
    ];
    const DURATIONS: [&str; 5] = ["180", "330 minutes", "2 hours", "1.5 days", "45 s"];
    assert!(DOCS.iter().all(|d| Xrsl::parse(d).is_ok()));
    assert!(DURATIONS.iter().all(|d| parse_duration_secs(d).is_some()));
    check("xrsl_parsers_survive_mutated_text", 384, |g| {
        let doc = *g.choose(&DOCS);
        let _ = Xrsl::parse(&mutate_text(g, doc));
        let duration = *g.choose(&DURATIONS);
        let _ = parse_duration_secs(&mutate_text(g, duration));
    });
}
