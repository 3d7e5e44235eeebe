//! Property-based tests of the payment system: under arbitrary operation
//! sequences, value is conserved and cheats are rejected.
//!
//! Randomized with fixed-seed Xoshiro256** streams (in-tree, offline):
//! each property runs hundreds of generated operation sequences and is
//! exactly reproducible.

use std::collections::BTreeMap;

use idpa_desim::rng::Xoshiro256StarStar;
use idpa_payment::audit::{AuditEntry, AuditLog};
use idpa_payment::bank::{AccountId, Bank};
use idpa_payment::token::{Token, TokenId, Wallet};
use idpa_payment::wal::LedgerOp;

const CASES: usize = 256;

/// A randomised operation against the bank.
#[derive(Debug, Clone, Copy)]
enum Op {
    Withdraw { account: usize, amount: u64 },
    DepositNext { account: usize },
    ReplayLastDeposit { account: usize },
    Transfer { from: usize, to: usize, amount: u64 },
}

fn random_op(rng: &mut Xoshiro256StarStar) -> Op {
    match rng.next() % 4 {
        0 => Op::Withdraw {
            account: (rng.next() % 4) as usize,
            amount: 1 + rng.next() % 49,
        },
        1 => Op::DepositNext {
            account: (rng.next() % 4) as usize,
        },
        2 => Op::ReplayLastDeposit {
            account: (rng.next() % 4) as usize,
        },
        _ => Op::Transfer {
            from: (rng.next() % 4) as usize,
            to: (rng.next() % 4) as usize,
            amount: 1 + rng.next() % 49,
        },
    }
}

fn random_ops(rng: &mut Xoshiro256StarStar, max_len: u64) -> Vec<Op> {
    let len = 1 + (rng.next() % max_len) as usize;
    (0..len).map(|_| random_op(rng)).collect()
}

/// Conservation: deposits + outstanding tokens stay constant under any
/// mix of withdrawals, deposits, replays and transfers.
#[test]
fn value_conserved_under_arbitrary_ops() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0x2001);
    for _ in 0..CASES {
        let ops = random_ops(&mut gen, 24);
        let mut rng = Xoshiro256StarStar::seed_from_u64(gen.next());
        let mut bank = Bank::new(256, &mut rng);
        let accounts: Vec<AccountId> = (0..4).map(|_| bank.open_account(500)).collect();
        let initial = bank.ledger().total_deposits();

        // Bearer tokens in flight, and the last deposited token (for
        // double-spend replays).
        let mut in_flight: Vec<Token> = Vec::new();
        let mut last_deposited: Option<Token> = None;

        for op in &ops {
            match *op {
                Op::Withdraw { account, amount } => {
                    let mut w = Wallet::new();
                    if bank
                        .withdraw_into_wallet(accounts[account], amount, &mut w, &mut rng)
                        .is_ok()
                    {
                        let balance = w.balance();
                        in_flight.extend(w.take_exact(balance).unwrap());
                    }
                }
                Op::DepositNext { account } => {
                    if let Some(token) = in_flight.pop() {
                        bank.deposit(accounts[account], &token).unwrap();
                        last_deposited = Some(token);
                    }
                }
                Op::ReplayLastDeposit { account } => {
                    if let Some(token) = &last_deposited {
                        // A replay must always bounce.
                        assert!(bank.deposit(accounts[account], token).is_err());
                    }
                }
                Op::Transfer { from, to, amount } => {
                    let _ = bank.transfer(accounts[from], accounts[to], amount);
                }
            }
            // The conservation invariant holds after EVERY operation.
            assert_eq!(
                bank.ledger().total_deposits() + bank.ledger().outstanding(),
                initial,
                "conservation violated after {op:?}"
            );
        }

        // Depositing the remaining in-flight tokens restores all value to
        // ledger balances.
        let sink = bank.open_account(0);
        for token in &in_flight {
            bank.deposit(sink, token).unwrap();
        }
        assert_eq!(bank.ledger().total_deposits(), initial);
        assert_eq!(bank.ledger().outstanding(), 0);
    }
}

/// No sequence of operations can mint value into a single account beyond
/// what the system held initially.
#[test]
fn no_account_exceeds_total_supply() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0x2002);
    for _ in 0..CASES {
        let ops = random_ops(&mut gen, 19);
        let mut rng = Xoshiro256StarStar::seed_from_u64(gen.next());
        let mut bank = Bank::new(256, &mut rng);
        let accounts: Vec<AccountId> = (0..4).map(|_| bank.open_account(100)).collect();
        let supply = bank.ledger().total_deposits();
        let mut in_flight: Vec<Token> = Vec::new();

        for op in &ops {
            match *op {
                Op::Withdraw { account, amount } => {
                    let mut w = Wallet::new();
                    if bank
                        .withdraw_into_wallet(accounts[account], amount, &mut w, &mut rng)
                        .is_ok()
                    {
                        let b = w.balance();
                        in_flight.extend(w.take_exact(b).unwrap());
                    }
                }
                Op::DepositNext { account } => {
                    if let Some(t) = in_flight.pop() {
                        bank.deposit(accounts[account], &t).unwrap();
                    }
                }
                Op::ReplayLastDeposit { .. } => {}
                Op::Transfer { from, to, amount } => {
                    let _ = bank.transfer(accounts[from], accounts[to], amount);
                }
            }
            for &acct in &accounts {
                assert!(bank.ledger().balance(acct).unwrap() <= supply);
            }
        }
    }
}

/// A random balance-affecting ledger op over a small account universe.
fn random_ledger_op(rng: &mut Xoshiro256StarStar) -> LedgerOp {
    let acct = |rng: &mut Xoshiro256StarStar| AccountId(rng.next() % 4);
    match rng.next() % 5 {
        4 => {
            let epoch = rng.next() % 8;
            let deltas = (0..1 + rng.next() % 2)
                .map(|_| (acct(rng), i128::from(rng.next() % 99) - 49))
                .collect();
            LedgerOp::EpochNet { epoch, deltas }
        }
        0 => LedgerOp::Open {
            balance: rng.next() % 200,
        },
        1 => LedgerOp::Withdraw {
            account: acct(rng),
            value: 1 + rng.next() % 49,
        },
        2 => {
            let mut serial = [0u8; 32];
            for b in &mut serial {
                *b = (rng.next() % 256) as u8;
            }
            LedgerOp::Deposit {
                account: acct(rng),
                serial: TokenId(serial),
                value: 1 + rng.next() % 49,
            }
        }
        _ => LedgerOp::Transfer {
            from: acct(rng),
            to: acct(rng),
            amount: 1 + rng.next() % 49,
        },
    }
}

/// XORs one nonzero byte into some field of the entry: the sequence
/// number, the chain hash, or any field of the op.
fn flip_entry_byte(entry: &mut AuditEntry, rng: &mut Xoshiro256StarStar) {
    let m = 1 + (rng.next() % 255) as u8;
    let word = u64::from(m) << (8 * (rng.next() % 8));
    match rng.next() % 3 {
        0 => entry.seq ^= word,
        1 => {
            let i = (rng.next() % 32) as usize;
            entry.hash[i] ^= m;
        }
        _ => match &mut entry.op {
            LedgerOp::Open { balance } => *balance ^= word,
            LedgerOp::Withdraw { account, value } => match rng.next() % 2 {
                0 => account.0 ^= word,
                _ => *value ^= word,
            },
            LedgerOp::Deposit {
                account,
                serial,
                value,
            } => match rng.next() % 3 {
                0 => account.0 ^= word,
                1 => *value ^= word,
                _ => serial.0[(rng.next() % 32) as usize] ^= m,
            },
            LedgerOp::Transfer { from, to, amount } => match rng.next() % 3 {
                0 => from.0 ^= word,
                1 => to.0 ^= word,
                _ => *amount ^= word,
            },
            LedgerOp::EpochNet { epoch, deltas } => {
                let i = (rng.next() % deltas.len() as u64) as usize;
                let (&account, &delta) = deltas.iter().nth(i).expect("i < len");
                match rng.next() % 3 {
                    0 => *epoch ^= word,
                    1 => {
                        // Move the delta to another account (a collision
                        // with the other entry shrinks the net instead).
                        deltas.remove(&account);
                        deltas.insert(AccountId(account.0 ^ word), delta);
                    }
                    // XOR into a random byte of the 16-byte encoding.
                    _ => {
                        *deltas.get_mut(&account).expect("drawn above") ^=
                            i128::from(word) << (64 * (rng.next() % 2));
                    }
                }
            }
        },
    }
}

/// Tamper-evidence is byte-exact: flipping ANY byte of ANY entry — seq,
/// hash, or any op field of any variant — makes `verify()` report that
/// entry's index, never a different one and never `Ok`.
#[test]
fn any_single_byte_flip_is_detected_at_the_exact_entry() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0x2003);
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(gen.next());
        let n = 1 + (rng.next() % 12) as usize;
        let mut log = AuditLog::new();
        for _ in 0..n {
            log.append(random_ledger_op(&mut rng));
        }
        assert_eq!(log.verify(), Ok(()));

        let target = (rng.next() % n as u64) as usize;
        let mut entries = log.entries().to_vec();
        flip_entry_byte(&mut entries[target], &mut rng);
        let tampered = AuditLog::from_entries(entries);
        assert_eq!(
            tampered.verify(),
            Err(target),
            "case {case}: flip in entry {target} of {n} must be pinned there"
        );
    }
}

/// A seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256StarStar) {
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `replay_balance` is a pure function of the op *multiset*: any two
/// interleavings of the same ops reconstruct identical per-account
/// balances, and both orderings form valid chains when appended honestly.
/// An `Open`'s account is its place among the opens (ids are sequential),
/// so the opens lead in drawn order and every other op is shuffled.
#[test]
fn replay_balance_is_invariant_under_event_interleaving() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0x2004);
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(gen.next());
        let n = 1 + (rng.next() % 16) as usize;
        let (opens, mut first): (Vec<LedgerOp>, Vec<LedgerOp>) = (0..n)
            .map(|_| random_ledger_op(&mut rng))
            .partition(|op| matches!(op, LedgerOp::Open { .. }));
        let mut second = first.clone();
        shuffle(&mut first, &mut rng);
        shuffle(&mut second, &mut rng);

        let build = |ops: Vec<LedgerOp>| {
            let mut log = AuditLog::new();
            for op in opens.iter().cloned().chain(ops) {
                log.append(op);
            }
            log
        };
        let log_a = build(first);
        let log_b = build(second);
        assert_eq!(log_a.verify(), Ok(()));
        assert_eq!(log_b.verify(), Ok(()));
        for id in 0..4 {
            assert_eq!(
                log_a.replay_balance(AccountId(id)),
                log_b.replay_balance(AccountId(id)),
                "case {case}: account {id} diverges between interleavings"
            );
        }
    }
}

/// Builds twin banks (same seed => same keys, accounts, audit genesis) and
/// a pool of identical tokens withdrawn from both.
fn twin_banks_with_tokens(
    seed: u64,
    supply: u64,
    n_tokens: u64,
) -> (Bank, Bank, Vec<AccountId>, Vec<Token>) {
    let mut bank_a = Bank::new(256, &mut Xoshiro256StarStar::seed_from_u64(seed));
    let mut bank_b = Bank::new(256, &mut Xoshiro256StarStar::seed_from_u64(seed));
    let accounts: Vec<AccountId> = (0..4).map(|_| bank_a.open_account(supply)).collect();
    for _ in 0..4 {
        bank_b.open_account(supply);
    }
    let withdraw = |bank: &mut Bank| {
        let mut r = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5eed);
        let mut w = Wallet::new();
        bank.withdraw_into_wallet(accounts[0], n_tokens, &mut w, &mut r)
            .unwrap();
        let b = w.balance();
        w.take_exact(b).unwrap()
    };
    let tokens_a = withdraw(&mut bank_a);
    let tokens_b = withdraw(&mut bank_b);
    assert_eq!(tokens_a, tokens_b, "twin banks must mint identical tokens");
    (bank_a, bank_b, accounts, tokens_a)
}

/// Epoch netting conserves the economics of the sequential per-bundle
/// operations it replaces: random interleavings of transfers and token
/// deposits, with each epoch's transfers netted into one delta per account
/// and applied through `Bank::apply_epoch_net` at the boundary, end with
/// the same balances, total deposits, outstanding liability and
/// spent-serial count as applying each transfer immediately.
#[test]
fn epoch_ledger_settlement_matches_sequential_economics() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0x2006);
    for case in 0..CASES {
        let seed = gen.next();
        let mut rng = Xoshiro256StarStar::seed_from_u64(gen.next());
        let n_tokens = 4 + rng.next() % 7;
        let (mut seq, mut epoch, accounts, mut pool) = twin_banks_with_tokens(seed, 300, n_tokens);

        for epoch_no in 0..2u64 {
            let mut net: BTreeMap<AccountId, i128> = BTreeMap::new();
            let mut deposits: Vec<(AccountId, Token)> = Vec::new();
            let ops = 1 + rng.next() % 10;
            for _ in 0..ops {
                if rng.next().is_multiple_of(2) {
                    let from = accounts[(rng.next() % 4) as usize];
                    let to = accounts[(rng.next() % 4) as usize];
                    let amount = 1 + rng.next() % 60;
                    // Net only transfers the sequential arm accepted, so
                    // both arms describe the same completed payments.
                    if seq.transfer(from, to, amount).is_ok() {
                        *net.entry(from).or_insert(0) -= i128::from(amount);
                        *net.entry(to).or_insert(0) += i128::from(amount);
                    }
                } else if let Some(t) = pool.pop() {
                    let account = accounts[(rng.next() % 4) as usize];
                    seq.deposit(account, &t).unwrap();
                    deposits.push((account, t));
                }
            }
            // Deposits settle first at the boundary: they only add funds,
            // so every debit the sequential order covered is covered.
            for (account, t) in &deposits {
                epoch.deposit(*account, t).unwrap();
            }
            epoch
                .apply_epoch_net(epoch_no, &net)
                .unwrap_or_else(|e| panic!("case {case}: net rejected: {e:?}"));
        }

        let (seq, epoch) = (seq.ledger(), epoch.ledger());
        for &a in &accounts {
            assert_eq!(seq.balance(a), epoch.balance(a), "case {case}");
        }
        assert_eq!(seq.total_deposits(), epoch.total_deposits(), "case {case}");
        assert_eq!(seq.outstanding(), epoch.outstanding(), "case {case}");
        assert_eq!(seq.spent_serials(), epoch.spent_serials(), "case {case}");
        // Both audit chains replay to the same per-account balances even
        // though one records transfers and the other epoch nets.
        for &a in &accounts {
            assert_eq!(
                seq.audit().replay_balance(a),
                epoch.audit().replay_balance(a),
                "case {case}: replayed balance diverges"
            );
        }
    }
}
