//! Deterministic structured fuzzing of the settlement-critical surfaces:
//! [`PathValidator`] under adversarial receipt interleavings and
//! byte-mutated manifests, [`Bank::deposit`] against a reference model
//! under forged, mutated and double-spent tokens, and
//! [`Bank::apply_epoch_net`] against the same transfers applied one by one.
//!
//! No external fuzzer: each case is generated from a seed by an in-tree
//! mutation grammar, so every failure is a one-u64 reproducer. Seeds of
//! past failures (and a spread of structural corner cases) are committed
//! under `tests/fuzz_corpus/` at the repo root and replayed first on every
//! run — the regression corpus grows, never shrinks.
//!
//! Tiers (all bit-deterministic):
//!
//! * default: a bounded pseudo-random sweep on top of the corpus;
//! * `IDPA_FUZZ_SMOKE=1` — the corpus plus a short sweep, for the
//!   `scripts/verify.sh` stage (≤ 30 s);
//! * `IDPA_FUZZ_LONG=1` — the nightly CI tier, two orders of magnitude
//!   more cases.

use std::sync::LazyLock;

use idpa_crypto::hmac::HmacKey;
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_payment::{
    AccountId, Bank, ConnectionEvidence, DepositError, EpochNetError, PathManifest, PathValidator,
    Receipt, Token, TokenId, ValidationReport, Wallet,
};

const KEY_BYTES: &[u8] = b"fuzz bundle key";
static KEY: LazyLock<HmacKey> = LazyLock::new(|| HmacKey::new(KEY_BYTES));
const BUNDLE: u64 = 77;

/// Case budget for one fuzz target under the active tier.
fn budget(default_cases: u64) -> u64 {
    let is = |k: &str| std::env::var(k).is_ok_and(|v| v == "1");
    if is("IDPA_FUZZ_LONG") {
        default_cases * 100
    } else if is("IDPA_FUZZ_SMOKE") {
        default_cases / 4
    } else {
        default_cases
    }
}

/// The committed regression corpus: one seed per line, `#` comments
/// allowed, shared by every target. Replayed before the pseudo-random
/// sweep; the file must exist and hold at least one seed so the corpus
/// can't silently vanish.
fn corpus_seeds() -> Vec<u64> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fuzz_corpus/seeds.txt"
    );
    let text = std::fs::read_to_string(path).expect("fuzz corpus must be present");
    let seeds: Vec<u64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus line must be a u64 seed"))
        .collect();
    assert!(!seeds.is_empty(), "fuzz corpus must hold at least one seed");
    seeds
}

/// Every seed the target will run: the corpus first, then the sweep.
fn case_seeds(target: u64, cases: u64) -> Vec<u64> {
    let mut seeds = corpus_seeds();
    // The sweep derives per-target streams so the three targets explore
    // different cases from the same corpus file.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed ^ target);
    seeds.extend((0..cases).map(|_| rng.next()));
    seeds
}

fn account(i: u64) -> AccountId {
    AccountId(i)
}

/// One fuzzed connection: a genuine path, then seeded structural mutations
/// — receipt corruption/duplication/reordering/truncation, manifest byte
/// flips and hop edits, phantom padding with receipts minted under the
/// real key (the clique forgery), and randomized `observed_hops`.
#[allow(clippy::too_many_lines)] // one linear mutation grammar
fn fuzz_evidence(rng: &mut Xoshiro256StarStar, connection: u32) -> ConnectionEvidence {
    let n_hops = 1 + (rng.next() % 6) as usize;
    let mut hops: Vec<AccountId> = (0..n_hops).map(|_| account(1 + rng.next() % 40)).collect();
    let genuine = hops.clone();

    // Clique-style phantom padding: extra hops appended to the manifest
    // before sealing, with valid receipts minted below.
    let phantoms = (rng.next() % 3) as usize;
    for _ in 0..phantoms {
        hops.push(account(100 + rng.next() % 8));
    }

    let mut manifest = PathManifest::issue(&KEY, BUNDLE, connection, hops.clone());

    let mut receipts: Vec<Receipt> = hops
        .iter()
        .enumerate()
        .map(|(i, &a)| Receipt::issue(&KEY, BUNDLE, connection, (i + 1) as u32, a))
        .collect();

    // Receipt-level mutations, each applied with seeded probability.
    for receipt in &mut receipts {
        match rng.next() % 12 {
            0 => receipt.mac[(rng.next() % 32) as usize] ^= 1 << (rng.next() % 8),
            1 => receipt.hop = (rng.next() % 10) as u32,
            2 => receipt.forwarder = account(rng.next() % 50),
            3 => receipt.bundle_id = rng.next() % 100,
            4 => receipt.connection = (rng.next() % 8) as u32,
            _ => {}
        }
    }
    // Structural mutations of the receipt *set*.
    match rng.next() % 8 {
        0 if !receipts.is_empty() => {
            // Duplicate a receipt somewhere else in the sequence.
            let r = receipts[(rng.next() as usize) % receipts.len()].clone();
            let at = (rng.next() as usize) % (receipts.len() + 1);
            receipts.insert(at, r);
        }
        1 => receipts.reverse(),
        2 => {
            // Seeded shuffle (Fisher–Yates).
            for i in (1..receipts.len()).rev() {
                receipts.swap(i, (rng.next() as usize) % (i + 1));
            }
        }
        3 => receipts.truncate((rng.next() as usize) % (receipts.len() + 1)),
        4 => receipts.clear(),
        _ => {}
    }
    // Manifest mutations: byte-flip the MAC, edit hops after sealing, or
    // reseal under a different identity.
    match rng.next() % 8 {
        0 => manifest.mac[(rng.next() % 32) as usize] ^= 1 << (rng.next() % 8),
        1 if !manifest.hops.is_empty() => {
            let at = (rng.next() as usize) % manifest.hops.len();
            manifest.hops[at] = account(rng.next() % 50);
        }
        2 => manifest.bundle_id = rng.next() % 100,
        3 => manifest.connection = (rng.next() % 8) as u32,
        _ => {}
    }

    // Cross-check arm: none, the genuine view, or a corrupted view.
    let observed_hops = match rng.next() % 4 {
        0 | 1 => None,
        2 => Some(genuine),
        _ => {
            let mut obs = genuine;
            if !obs.is_empty() && rng.next().is_multiple_of(2) {
                let at = (rng.next() as usize) % obs.len();
                obs[at] = account(rng.next() % 50);
            }
            if rng.next().is_multiple_of(3) {
                obs.truncate(obs.len().saturating_sub(1));
            }
            Some(obs)
        }
    };

    ConnectionEvidence {
        manifest,
        receipts,
        observed_hops,
    }
}

/// Merges `b` into `a` the way epoch settlement merges per-window reports.
fn merge(a: &mut ValidationReport, b: ValidationReport) {
    a.expected_instances += b.expected_instances;
    a.validated_instances += b.validated_instances;
    for (k, v) in b.paid_counts {
        *a.paid_counts.entry(k).or_insert(0) += v;
    }
    a.flagged.extend(b.flagged);
    a.unattributed += b.unattributed;
    a.invalid_manifests += b.invalid_manifests;
    a.phantom_instances += b.phantom_instances;
    a.phantom_accounts.extend(b.phantom_accounts);
}

/// PathValidator under the full mutation grammar. Invariants: no panic on
/// any input; payment never exceeds the manifests' claims; settling in
/// windows partitions losslessly; flags and phantoms only ever name
/// manifest hops; per-connection flagging agrees with settlement; a
/// settle leaves nothing pending.
#[test]
fn fuzz_path_validator_invariants() {
    for seed in case_seeds(1, budget(2000)) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n_conns = 1 + (rng.next() % 6) as u32;
        let evidence: Vec<ConnectionEvidence> =
            (0..n_conns).map(|c| fuzz_evidence(&mut rng, c)).collect();
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        for ev in &evidence {
            v.add_connection(ev.clone());
        }
        let report = v.settle();
        assert!(
            v.pending().is_empty(),
            "seed {seed}: settled evidence still pending"
        );
        assert_eq!(
            v.settle(),
            ValidationReport::default(),
            "seed {seed}: a second settle found evidence"
        );

        assert!(
            report.validated_instances <= report.expected_instances,
            "seed {seed}: paid more instances than the manifests claim"
        );
        let paid_sum: u64 = report.paid_counts.values().sum();
        assert_eq!(
            paid_sum, report.validated_instances,
            "seed {seed}: per-account payments disagree with the validated total"
        );
        assert!(
            (0.0..=1.0).contains(&report.shortfall()),
            "seed {seed}: shortfall out of range"
        );

        // Settling in windows at any split points and merging the reports
        // equals one settle. Each connection is flagged as it arrives,
        // like the adaptive runner's in-run check, and the union of those
        // flags is exactly the settlement's (each connection pins at most
        // one forwarder).
        let mut windowed = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut windows = ValidationReport::default();
        let mut union = std::collections::BTreeSet::new();
        let mut rest = evidence.iter();
        loop {
            let take = 1 + (rng.next() as usize) % 3;
            let mut added = 0;
            for ev in rest.by_ref().take(take) {
                windowed.add_connection(ev.clone());
                union.extend(windowed.flag_connection(windowed.pending().len() - 1));
                added += 1;
            }
            if added == 0 {
                break;
            }
            merge(&mut windows, windowed.settle());
        }
        assert_eq!(
            windows, report,
            "seed {seed}: windowed settlement diverged from one settle"
        );
        assert_eq!(
            union, report.flagged,
            "seed {seed}: per-connection flags diverged from settlement"
        );

        // Flags, payments, and phantom reports only ever name accounts
        // some manifest vouched for.
        let manifest_accounts: std::collections::BTreeSet<AccountId> = evidence
            .iter()
            .flat_map(|e| e.manifest.hops.iter().copied())
            .collect();
        for f in &report.flagged {
            assert!(
                manifest_accounts.contains(f),
                "seed {seed}: flagged an account no manifest names"
            );
        }
        for a in report.paid_counts.keys() {
            assert!(
                manifest_accounts.contains(a),
                "seed {seed}: paid an account no manifest names"
            );
        }
        for a in &report.phantom_accounts {
            assert!(
                manifest_accounts.contains(a),
                "seed {seed}: phantom-reported an account no manifest names"
            );
        }
    }
}

/// With the cross-check armed and truthful (`observed_hops` = the hops the
/// initiator routed), phantom-padded manifests never pay the phantoms: the
/// paid instances are bounded by the genuine hop count, and every padded
/// account with a valid receipt is reported.
#[test]
fn fuzz_cross_check_never_pays_phantoms() {
    for seed in case_seeds(2, budget(2000)) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n_genuine = 1 + (rng.next() % 5) as usize;
        let genuine: Vec<AccountId> = (0..n_genuine)
            .map(|_| account(1 + rng.next() % 40))
            .collect();
        let n_phantom = 1 + (rng.next() % 4) as usize;
        let mut hops = genuine.clone();
        for _ in 0..n_phantom {
            hops.push(account(100 + rng.next() % 8));
        }
        let manifest = PathManifest::issue(&KEY, BUNDLE, 0, hops.clone());
        let receipts: Vec<Receipt> = hops
            .iter()
            .enumerate()
            .map(|(i, &a)| Receipt::issue(&KEY, BUNDLE, 0, (i + 1) as u32, a))
            .collect();
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(ConnectionEvidence {
            manifest,
            receipts,
            observed_hops: Some(genuine),
        });
        let report = v.settle();
        assert_eq!(
            report.validated_instances, n_genuine as u64,
            "seed {seed}: phantom padding changed what gets paid"
        );
        assert_eq!(
            report.phantom_instances, n_phantom as u64,
            "seed {seed}: a vouched phantom went unreported"
        );
        for a in report.paid_counts.keys() {
            assert!(
                a.0 < 100,
                "seed {seed}: a phantom account ended up in the paid set"
            );
        }
    }
}

/// `Bank::deposit` under forged, mutated and double-spent tokens against
/// a reference model: a token is genuine iff it is exactly as minted, the
/// first deposit of a genuine serial into a known account credits its
/// value, and every other deposit is rejected with the reason the bank
/// checks first (unknown account, then signature, then serial) and moves
/// nothing.
#[test]
fn fuzz_deposit_matches_reference_model() {
    use std::collections::{BTreeMap, HashSet};
    // Key generation dominates; one bank serves all cases.
    let mut bank = Bank::new(256, &mut Xoshiro256StarStar::seed_from_u64(9));
    let alice = bank.open_account(1_000_000);
    let payees = [alice, bank.open_account(0), bank.open_account(0)];
    let modulus = bank.public_key().modulus().clone();
    let unknown = AccountId(9_999);

    // The model: genuine tokens minted so far, serials spent, balances.
    let mut genuine: Vec<Token> = Vec::new();
    let mut spent: HashSet<TokenId> = HashSet::new();
    let mut balances: BTreeMap<AccountId, u64> = payees
        .iter()
        .map(|&a| (a, bank.ledger().balance(a).expect("opened")))
        .collect();
    let mut outstanding = 0u64;
    // Verdicts seen: accepted, unknown account, bad signature, double spend.
    let mut seen = [0u64; 4];

    for seed in case_seeds(3, budget(24)) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut wallet = Wallet::new();
        let mut fresh = Vec::new();
        for _ in 0..4 {
            let value = 1 + rng.next() % 3;
            bank.withdraw_into_wallet(alice, value, &mut wallet, &mut rng)
                .expect("withdraw");
            *balances.get_mut(&alice).expect("alice") -= value;
            outstanding += value;
            fresh.extend(wallet.take_exact(value).expect("exact"));
        }
        genuine.extend(fresh.iter().cloned());

        // Mutate: inflate values, flip serial bits, perturb or negate
        // signatures, aim at an unknown account, replay a token deposited
        // in this case or an earlier one.
        let mut deposits: Vec<(AccountId, Token)> = Vec::new();
        for t in fresh {
            let mut t = t;
            let mut to = payees[(rng.next() % 3) as usize];
            match rng.next() % 8 {
                0 => t.value = 1 + rng.next() % 500,
                1 => t.id.0[(rng.next() % 32) as usize] ^= 1 << (rng.next() % 8),
                2 => t.signature = t.signature.add(&idpa_crypto::BigUint::one()).rem(&modulus),
                3 => t.signature = modulus.sub(&t.signature),
                4 => to = unknown,
                5 => deposits.push((to, t.clone())), // the 2nd is a double spend
                6 => {
                    let old = &genuine[(rng.next() % genuine.len() as u64) as usize];
                    deposits.push((to, old.clone()));
                }
                _ => {}
            }
            deposits.push((to, t));
        }

        for (to, t) in &deposits {
            let expect = if !balances.contains_key(to) {
                Err(DepositError::UnknownAccount)
            } else if !genuine.contains(t) {
                Err(DepositError::InvalidSignature)
            } else if !spent.insert(t.id) {
                Err(DepositError::DoubleSpend)
            } else {
                *balances.get_mut(to).expect("known") += t.value;
                outstanding -= t.value;
                Ok(())
            };
            assert_eq!(bank.deposit(*to, t), expect, "seed {seed}: verdict");
            seen[match expect {
                Ok(()) => 0,
                Err(DepositError::UnknownAccount) => 1,
                Err(DepositError::InvalidSignature) => 2,
                Err(DepositError::DoubleSpend) => 3,
                Err(DepositError::ExceedsOutstanding | DepositError::BalanceOverflow) => {
                    unreachable!("the model never expects it")
                }
            }] += 1;
        }
        let ledger = bank.ledger();
        for (&a, &b) in &balances {
            assert_eq!(ledger.balance(a), Some(b), "seed {seed}: balance of {a:?}");
        }
        assert_eq!(
            ledger.balance(unknown),
            None,
            "seed {seed}: phantom account"
        );
        assert_eq!(ledger.spent_serials(), spent.len(), "seed {seed}: serials");
        assert_eq!(
            ledger.outstanding(),
            outstanding,
            "seed {seed}: outstanding"
        );
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "sweep must hit every verdict: {seen:?}"
    );
}

/// `Bank::apply_epoch_net` under random transfer programs (some debits
/// uncoverable, some credits past `u64::MAX`) against the same transfers
/// applied one by one. When every sequential transfer succeeds the net
/// succeeds with the same balances; a rejected net names an account whose
/// balance plus net leaves `u64` and leaves every balance untouched; an
/// accepted net lands each account on its balance plus net.
#[test]
fn fuzz_epoch_ledger_interleavings() {
    use std::collections::BTreeMap;
    let mut bank = Bank::new(256, &mut Xoshiro256StarStar::seed_from_u64(21));
    let mut accounts: Vec<AccountId> = (0..4).map(|i| bank.open_account(50 + i * 10)).collect();
    // One account near the top of `u64`, so a credit can overflow.
    accounts.push(bank.open_account(u64::MAX - 100));
    let (mut accepted, mut rejected) = (0u64, 0u64);

    for (epoch, seed) in (0u64..).zip(case_seeds(4, budget(48))) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut transfers: Vec<(AccountId, AccountId, u64)> = Vec::new();
        let mut net: BTreeMap<AccountId, i128> = BTreeMap::new();
        for _ in 0..(1 + rng.next() % 8) {
            let from = accounts[(rng.next() as usize) % accounts.len()];
            let to = accounts[(rng.next() as usize) % accounts.len()];
            let amount = rng.next() % 120; // can exceed a balance
            transfers.push((from, to, amount));
            *net.entry(from).or_insert(0) -= i128::from(amount);
            *net.entry(to).or_insert(0) += i128::from(amount);
        }

        let before: Vec<Option<u64>> = accounts.iter().map(|&a| bank.ledger().balance(a)).collect();
        let mut sequential = bank.clone();
        let all_applied = transfers
            .iter()
            .all(|&(from, to, amount)| sequential.transfer(from, to, amount).is_ok());
        let mut netted = bank.clone();
        let result = netted.apply_epoch_net(epoch, &net);
        let target = |a: AccountId, b: Option<u64>| -> i128 {
            i128::from(b.expect("opened")) + net.get(&a).copied().unwrap_or(0)
        };
        let after: Vec<Option<u64>> = accounts
            .iter()
            .map(|&a| netted.ledger().balance(a))
            .collect();

        match result {
            Ok(()) => {
                accepted += 1;
                for ((&a, &b), &got) in accounts.iter().zip(&before).zip(&after) {
                    assert_eq!(
                        got.map(i128::from),
                        Some(target(a, b)),
                        "seed {seed}: netted balance of {a:?}"
                    );
                }
                if all_applied {
                    for &a in &accounts {
                        assert_eq!(
                            netted.ledger().balance(a),
                            sequential.ledger().balance(a),
                            "seed {seed}: net diverged from the sequential transfers"
                        );
                    }
                }
                assert_eq!(
                    netted.ledger().total_balance(),
                    bank.ledger().total_balance(),
                    "seed {seed}: a zero-sum net moved the total"
                );
                bank = netted;
            }
            Err(e) => {
                rejected += 1;
                assert!(!all_applied, "seed {seed}: net rejected what transfers did");
                assert_eq!(before, after, "seed {seed}: failed net moved balances");
                let (a, out_of_range): (AccountId, fn(i128) -> bool) = match e {
                    EpochNetError::InsufficientFunds(a) => (a, |t| t < 0),
                    EpochNetError::BalanceOverflow(a) => (a, |t| t > i128::from(u64::MAX)),
                    EpochNetError::UnknownAccount(a) => panic!("seed {seed}: unknown {a:?}"),
                    EpochNetError::NotZeroSum => panic!("seed {seed}: nonzero net"),
                };
                let i = accounts
                    .iter()
                    .position(|&x| x == a)
                    .expect("netted account");
                assert!(
                    out_of_range(target(a, before[i])),
                    "seed {seed}: {e:?} for an account the net keeps in range"
                );
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "sweep must hit both outcomes");
}

/// WAL decode/recovery under a seeded corruption grammar: build a valid
/// log from seeded ledger ops, then truncate, flip bytes, splice
/// (duplicate/drop/swap) whole records, or inject garbage runs.
/// Invariants: scanning and recovery never panic on any input; the
/// accepted prefix never exceeds the input; record boundaries are
/// strictly increasing and bounded by the intact length; recovery equals
/// an independent replay of the accepted prefix, is idempotent, and
/// always lands on a conservation-clean state.
#[test]
fn fuzz_wal_decode_and_recovery() {
    use idpa_payment::ledger::Ledger;
    use idpa_payment::wal::{scan, Wal};

    for seed in case_seeds(5, budget(2000)) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);

        // A valid log: seeded mix of every op kind on a small ledger.
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let accounts: Vec<AccountId> = (0..3)
            .map(|_| l.open_account(100 + rng.next() % 400))
            .collect();
        for i in 0..(2 + rng.next() % 10) {
            let a = accounts[(rng.next() as usize) % accounts.len()];
            let b = accounts[(rng.next() as usize) % accounts.len()];
            match rng.next() % 4 {
                0 | 1 => {
                    // Withdraw/deposit pair: bearer value leaves `a` and
                    // lands at `b`, keeping the history conservation-clean
                    // (a bare deposit would mint value from nowhere).
                    let v = 1 + rng.next() % 30;
                    if l.withdraw(a, v).is_ok() {
                        let mut id = [0u8; 32];
                        id[..8].copy_from_slice(&(seed ^ i).to_le_bytes());
                        id[9] = 0x5A;
                        let _ = l.deposit_serial(b, TokenId(id), v);
                    }
                }
                2 => {
                    let _ = l.transfer(a, b, 1 + rng.next() % 20);
                }
                _ => {
                    if a != b {
                        let d = i128::from(1 + rng.next() % 10);
                        let mut net: std::collections::BTreeMap<AccountId, i128> =
                            Default::default();
                        net.insert(a, -d);
                        net.insert(b, d);
                        let _ = l.apply_epoch_net(i, &net);
                    }
                }
            }
        }
        let mut bytes = l.wal().expect("attached").committed_bytes().to_vec();
        let clean_boundaries = scan(&bytes).boundaries;

        // Seeded corruption grammar. Splices can produce frame-intact
        // streams that are not a prefix of the real history, so the
        // conservation assertion below is scoped to non-spliced cases
        // (detecting spliced value creation is the invariant monitor's
        // job, not recovery's).
        let mut spliced = false;
        for _ in 0..(rng.next() % 4) {
            match rng.next() % 5 {
                0 if !bytes.is_empty() => {
                    bytes.truncate((rng.next() as usize) % (bytes.len() + 1));
                }
                1 if !bytes.is_empty() => {
                    let at = (rng.next() as usize) % bytes.len();
                    bytes[at] ^= 1 << (rng.next() % 8);
                }
                2 if clean_boundaries.len() > 1 => {
                    // Splice: re-insert a whole record from the clean log.
                    spliced = true;
                    let i = (rng.next() as usize) % clean_boundaries.len();
                    let start = if i == 0 { 0 } else { clean_boundaries[i - 1] };
                    let rec: Vec<u8> = l.wal().expect("attached").committed_bytes()
                        [start..clean_boundaries[i]]
                        .to_vec();
                    let at = (rng.next() as usize) % (bytes.len() + 1);
                    for (k, byte) in rec.into_iter().enumerate() {
                        bytes.insert(at + k, byte);
                    }
                }
                3 => {
                    // Garbage run at the tail (looks like a torn write).
                    for _ in 0..(rng.next() % 24) {
                        bytes.push((rng.next() & 0xff) as u8);
                    }
                }
                _ => {}
            }
        }

        // Invariants: total decode/recovery safety on arbitrary input.
        let s = scan(&bytes);
        assert!(s.intact_len <= bytes.len(), "seed {seed}");
        assert_eq!(s.ops.len(), s.boundaries.len(), "seed {seed}");
        for w in s.boundaries.windows(2) {
            assert!(w[0] < w[1], "seed {seed}: boundaries not increasing");
        }
        if let Some(&last) = s.boundaries.last() {
            assert!(last <= s.intact_len, "seed {seed}");
        }

        let (recovered, report) = Ledger::recover(&bytes);
        assert!(report.bytes_replayed <= bytes.len(), "seed {seed}");
        assert_eq!(
            report.bytes_replayed + report.torn_bytes,
            bytes.len(),
            "seed {seed}: prefix + tail must cover the input"
        );
        // Recovery ≡ independent replay of the accepted prefix.
        let mut oracle = Ledger::new();
        for op in &scan(&bytes[..report.bytes_replayed]).ops {
            oracle.apply(op).expect("seed: accepted prefix must apply");
        }
        assert_eq!(recovered.digest(), oracle.digest(), "seed {seed}");
        if !spliced {
            // Truncation and byte flips only shorten the accepted prefix
            // of a conservation-clean history, so the recovered state
            // must conserve value exactly.
            assert!(recovered.conservation_holds(), "seed {seed}");
        }
        // Idempotence: recovering the recovered image is a fixed point.
        let again = Ledger::recover(
            recovered
                .wal()
                .expect("recover reattaches")
                .committed_bytes(),
        );
        assert!(again.1.is_clean(), "seed {seed}");
        assert_eq!(again.0.digest(), recovered.digest(), "seed {seed}");
    }
}
