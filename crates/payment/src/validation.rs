//! §5 reconstructed-path validation and cheater flagging.
//!
//! "Each intermediate forwarder also includes path information which is
//! then used by I to recreate the path and validate it." The initiator's
//! side of that sentence lives here: the responder seals the true path of
//! each completed connection into a MAC'd [`PathManifest`] (it knows the
//! path — the payload reached it hop by hop), every forwarder's receipt is
//! countersigned under the same per-bundle key as the confirmation returns,
//! and at settlement the initiator replays the evidence.
//!
//! A cheating forwarder on the reverse path cannot forge downstream
//! receipts (it lacks the bundle key's signing view of slots it never
//! held), so its profitable deviation is *destruction*: corrupt the
//! receipts of the hops below it while keeping its own. The manifest makes
//! that self-incriminating — the first invalid receipt sits directly below
//! an intact prefix, and the forwarder at the deepest valid position is the
//! most-upstream node that handled every corrupted receipt. Flagging it
//! never accuses an honest forwarder; a cheater masked by another cheater
//! upstream of it on one connection is exposed on any connection where it
//! acts as the most-upstream corrupter. The [`ValidationReport`] carries
//! both sides of a shortfall (`expected_instances` against
//! `validated_instances`); the escrow ([`crate::escrow`]) pays from its
//! `paid_counts`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use idpa_crypto::hmac::HmacKey;

use crate::bank::AccountId;
use crate::receipt::Receipt;

/// The responder's sealed statement of one connection's true path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathManifest {
    /// The connection bundle.
    pub bundle_id: u64,
    /// Connection index within the bundle.
    pub connection: u32,
    /// Forwarder accounts in path order (`f_1 … f_n`, endpoints excluded).
    pub hops: Vec<AccountId>,
    /// MAC under the bundle key over all fields above.
    pub mac: [u8; 32],
}

fn manifest_message(bundle_id: u64, connection: u32, hops: &[AccountId]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(8 + 4 + 8 * hops.len());
    msg.extend_from_slice(&bundle_id.to_be_bytes());
    msg.extend_from_slice(&connection.to_be_bytes());
    for h in hops {
        msg.extend_from_slice(&h.0.to_be_bytes());
    }
    msg
}

impl PathManifest {
    /// Seals the path under the bundle key (executed by the responder).
    #[must_use]
    pub fn issue(
        bundle_key: &HmacKey,
        bundle_id: u64,
        connection: u32,
        hops: Vec<AccountId>,
    ) -> Self {
        let mac = bundle_key.mac(&manifest_message(bundle_id, connection, &hops));
        PathManifest {
            bundle_id,
            connection,
            hops,
            mac,
        }
    }

    /// Verifies the seal.
    #[must_use]
    pub fn verify(&self, bundle_key: &HmacKey) -> bool {
        bundle_key.verify(
            &manifest_message(self.bundle_id, self.connection, &self.hops),
            &self.mac,
        )
    }
}

/// Everything the initiator holds about one completed connection: the
/// responder's manifest plus the receipts that survived the reverse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionEvidence {
    /// The responder's sealed path statement.
    pub manifest: PathManifest,
    /// Receipts as received (possibly corrupted by a cheater in transit).
    pub receipts: Vec<Receipt>,
    /// The hops the initiator *observed* forwarding, in path order — the
    /// cross-confirmation defense against colluding cliques. A clique
    /// responder holds the bundle key, so a manifest padded with phantom
    /// clique mates carries a valid MAC and valid receipts; the only
    /// authority the responder cannot forge is the initiator's own record
    /// of who it handed the payload to. `None` disables the cross-check
    /// for this entry (the pre-defense behavior, byte-identical for
    /// honest evidence).
    pub observed_hops: Option<Vec<AccountId>>,
}

/// Holds a bundle's unsettled evidence and validates it at settlement.
///
/// Evidence lives only until it settles: [`PathValidator::settle`]
/// validates every pending entry and drops it, so the validator (and a
/// snapshot of it) holds only the connections no settlement window has
/// closed over yet. Each entry is validated independently, so settling in
/// windows and merging the reports (summing counters, unioning
/// `paid_counts`/`flagged`) equals one settlement of all the entries.
#[derive(Debug, Clone)]
pub struct PathValidator {
    key: Vec<u8>,
    /// `key` prepared on first use rather than in `new`, so the key
    /// schedule of a pair that never completes a connection stays off
    /// every run's set-up.
    prepared: OnceLock<HmacKey>,
    bundle_id: u64,
    pending: Vec<ConnectionEvidence>,
}

impl PathValidator {
    /// A validator for one bundle under its shared key.
    #[must_use]
    pub fn new(bundle_key: &[u8], bundle_id: u64) -> Self {
        PathValidator {
            key: bundle_key.to_vec(),
            prepared: OnceLock::new(),
            bundle_id,
            pending: Vec::new(),
        }
    }

    /// The bundle this validator holds evidence for.
    #[must_use]
    pub fn bundle_id(&self) -> u64 {
        self.bundle_id
    }

    /// The bundle key, prepared for MACs — what the responder issues the
    /// bundle's manifests and receipts under.
    #[must_use]
    pub fn bundle_key(&self) -> &HmacKey {
        self.prepared.get_or_init(|| HmacKey::new(&self.key))
    }

    /// Records one completed connection's evidence as pending.
    pub fn add_connection(&mut self, evidence: ConnectionEvidence) {
        self.pending.push(evidence);
    }

    /// The unsettled evidence entries, in insertion order — what a
    /// snapshot carries (resume re-adds them with
    /// [`PathValidator::add_connection`]; the key and bundle id are
    /// re-derived).
    #[must_use]
    pub fn pending(&self) -> &[ConnectionEvidence] {
        &self.pending
    }

    /// Replays one evidence entry into `report` — the shared kernel of
    /// [`PathValidator::report`] and the adaptive runner's per-connection
    /// check ([`PathValidator::flag_connection`]).
    fn apply_evidence(&self, ev: &ConnectionEvidence, report: &mut ValidationReport) {
        let m = &ev.manifest;
        let key = self.bundle_key();
        if m.bundle_id != self.bundle_id || !m.verify(key) {
            report.invalid_manifests += 1;
            return;
        }
        // A receipt pays hop h (1-based) when it is for that slot of this
        // connection, carries this bundle, MAC-verifies and names the
        // forwarder the manifest places there. Any such receipt counts, so
        // a forged copy beside the genuine one takes nothing away.
        let vouched = |hop: u32, account: AccountId| {
            let slot = |r: &&Receipt| r.connection == m.connection && r.hop == hop;
            ev.receipts
                .iter()
                .filter(slot)
                .any(|r| r.bundle_id == self.bundle_id && r.forwarder == account && r.verify(key))
        };
        // With observed hops on record, a manifest entry that disagrees
        // with the initiator's own observation is a *phantom*: its (valid!)
        // receipt is withheld from payment and the vouched-for account is
        // reported, without perturbing the intact-prefix walk over the
        // genuine hops.
        let mut prefix_valid = 0usize; // deepest intact prefix
        let mut broken = false;
        for (i, &account) in m.hops.iter().enumerate() {
            let hop = (i + 1) as u32;
            if let Some(obs) = &ev.observed_hops {
                if obs.get(i) != Some(&account) {
                    report.phantom_accounts.insert(account);
                    if vouched(hop, account) {
                        report.phantom_instances += 1;
                    }
                    continue;
                }
            }
            report.expected_instances += 1;
            if vouched(hop, account) {
                report.validated_instances += 1;
                *report.paid_counts.entry(account).or_insert(0) += 1;
                if !broken {
                    prefix_valid = i + 1;
                }
            } else {
                broken = true;
            }
        }
        if broken {
            if prefix_valid >= 1 {
                report.flagged.insert(m.hops[prefix_valid - 1]);
            } else {
                report.unattributed += 1;
            }
        }
    }

    /// Validates the pending evidence without dropping it: counts payable
    /// forwarding instances, measures the corruption shortfall, and flags
    /// cheaters by the intact-prefix rule described in the module docs.
    #[must_use]
    pub fn report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for ev in &self.pending {
            self.apply_evidence(ev, &mut report);
        }
        report
    }

    /// [`PathValidator::report`], then drops the entries it covered. A
    /// second call with nothing added returns an empty report.
    pub fn settle(&mut self) -> ValidationReport {
        let report = self.report();
        self.pending.clear();
        report
    }

    /// Validates one pending connection (by its index in
    /// [`PathValidator::pending`]) with the same intact-prefix rule as
    /// [`PathValidator::settle`] and returns the forwarder it pins the
    /// corruption on, if any. Nothing is dropped.
    ///
    /// This is the adaptive fault-response feedback hook: instead of
    /// learning about cheaters only at end-of-run settlement, the
    /// initiator checks each connection's evidence as its confirmation
    /// returns and feeds the flag straight into its reputation ledger, so
    /// the cheater is suppressed from the *rest of the same run's* path
    /// formations. A connection flags at most one forwarder (the
    /// most-upstream acting corrupter).
    #[must_use]
    pub fn flag_connection(&self, index: usize) -> Option<AccountId> {
        let mut report = ValidationReport::default();
        self.apply_evidence(self.pending.get(index)?, &mut report);
        report.flagged.into_iter().next()
    }
}

/// The outcome of validating one bundle's evidence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Forwarding instances the manifests say happened.
    pub expected_instances: u64,
    /// Instances backed by a valid receipt (what settlement will pay).
    pub validated_instances: u64,
    /// Payable instance counts per forwarder (the settlement input).
    pub paid_counts: BTreeMap<AccountId, u64>,
    /// Forwarders flagged as confirmation cheaters.
    pub flagged: BTreeSet<AccountId>,
    /// Connections whose corruption could not be pinned on any forwarder
    /// (no intact prefix at all).
    pub unattributed: u64,
    /// Evidence entries whose manifest failed verification.
    pub invalid_manifests: u64,
    /// Phantom forwarding instances caught by the observed-hops
    /// cross-check: manifest entries with a valid receipt that the
    /// initiator never actually routed through. Withheld from payment.
    pub phantom_instances: u64,
    /// Accounts the cross-check caught being vouched for phantom work.
    pub phantom_accounts: BTreeSet<AccountId>,
}

impl ValidationReport {
    /// Fraction of earned forwarding payment lost to corruption
    /// (`0` when everything validated, including the empty bundle).
    #[must_use]
    pub fn shortfall(&self) -> f64 {
        if self.expected_instances == 0 {
            return 0.0;
        }
        1.0 - self.validated_instances as f64 / self.expected_instances as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::LazyLock;

    const KEY_BYTES: &[u8] = b"bundle key for validation tests";
    static KEY: LazyLock<HmacKey> = LazyLock::new(|| HmacKey::new(KEY_BYTES));
    const BUNDLE: u64 = 9;

    fn account(i: u64) -> AccountId {
        AccountId(i)
    }

    /// Builds a connection's evidence over the given path, corrupting the
    /// receipts of every hop strictly below `corrupt_from` (1-based, as a
    /// cheating forwarder at that position would).
    fn evidence(connection: u32, path: &[u64], corrupt_from: Option<usize>) -> ConnectionEvidence {
        let hops: Vec<AccountId> = path.iter().map(|&i| account(i)).collect();
        let manifest = PathManifest::issue(&KEY, BUNDLE, connection, hops.clone());
        let receipts = hops
            .iter()
            .enumerate()
            .map(|(i, &acct)| {
                let mut r = Receipt::issue(&KEY, BUNDLE, connection, (i + 1) as u32, acct);
                if corrupt_from.is_some_and(|cf| i + 1 > cf) {
                    r.mac[0] ^= 0x55;
                }
                r
            })
            .collect();
        ConnectionEvidence {
            manifest,
            receipts,
            observed_hops: None,
        }
    }

    #[test]
    fn manifest_round_trip_and_tamper_detection() {
        let m = PathManifest::issue(&KEY, BUNDLE, 3, vec![account(1), account(2)]);
        assert!(m.verify(&KEY));
        assert!(!m.verify(&HmacKey::new(b"wrong key")));
        let mut t = m.clone();
        t.hops[1] = account(7);
        assert!(!t.verify(&KEY), "substituted hop must break the seal");
        let mut t = m;
        t.connection = 4;
        assert!(!t.verify(&KEY));
    }

    #[test]
    fn clean_bundle_pays_everyone_and_flags_no_one() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(evidence(0, &[1, 2, 3], None));
        v.add_connection(evidence(1, &[1, 4], None));
        let r = v.settle();
        assert_eq!(r.expected_instances, 5);
        assert_eq!(r.validated_instances, 5);
        assert_eq!(r.shortfall(), 0.0);
        assert!(r.flagged.is_empty());
        assert_eq!(r.unattributed, 0);
        assert_eq!(r.paid_counts[&account(1)], 2);
        assert_eq!(r.paid_counts[&account(3)], 1);
    }

    #[test]
    fn corruption_flags_the_most_upstream_acting_cheater() {
        // Cheater at position 2 (account 5) corrupts hops 3..: the deepest
        // intact prefix ends at position 2, so account 5 is flagged, and
        // the honest victims below it are the ones who lose payment.
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(evidence(0, &[4, 5, 6, 7], Some(2)));
        let r = v.settle();
        assert_eq!(r.flagged.iter().copied().collect::<Vec<_>>(), [account(5)]);
        assert_eq!(r.expected_instances, 4);
        assert_eq!(r.validated_instances, 2);
        assert!((r.shortfall() - 0.5).abs() < 1e-12);
        assert!(!r.paid_counts.contains_key(&account(6)));
        assert!(!r.paid_counts.contains_key(&account(7)));
    }

    #[test]
    fn every_injected_cheater_is_flagged_across_a_bundle() {
        // Three cheaters (5, 6, 7). On any one connection only the most
        // upstream acting cheater is exposed; across the bundle's
        // connections each of them acts as the most-upstream corrupter on
        // at least one path, so accumulation flags all three and never an
        // honest node.
        let cheaters = [5u64, 6, 7];
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(evidence(0, &[1, 5, 6, 2], Some(2))); // 5 masks 6
        v.add_connection(evidence(1, &[1, 6, 3, 2], Some(2))); // 6 exposed
        v.add_connection(evidence(2, &[7, 4, 1], Some(1))); // 7 exposed
        let r = v.settle();
        let flagged: Vec<u64> = r.flagged.iter().map(|a| a.0).collect();
        assert_eq!(flagged, cheaters, "all cheaters flagged, nobody else");
        assert_eq!(r.unattributed, 0);
    }

    #[test]
    fn missing_receipts_are_shortfall_not_false_accusation() {
        // A dropped confirmation yields no evidence at all; a partially
        // delivered receipt set with an intact prefix flags the boundary.
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut ev = evidence(0, &[1, 2, 3], None);
        ev.receipts.truncate(1); // hops 2 and 3 never arrived
        v.add_connection(ev);
        let r = v.settle();
        assert_eq!(r.validated_instances, 1);
        assert_eq!(
            r.flagged.iter().copied().collect::<Vec<_>>(),
            [account(1)],
            "the holder of the deepest valid receipt is the suspect"
        );
    }

    #[test]
    fn fully_corrupted_connection_is_unattributed() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(evidence(0, &[1, 2], Some(0)));
        let r = v.settle();
        assert_eq!(r.validated_instances, 0);
        assert!(r.flagged.is_empty(), "no intact prefix, no accusation");
        assert_eq!(r.unattributed, 1);
        assert_eq!(r.shortfall(), 1.0);
    }

    #[test]
    fn invalid_manifest_is_counted_and_skipped() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut ev = evidence(0, &[1, 2], None);
        ev.manifest.hops[0] = account(9); // forged path statement
        v.add_connection(ev);
        let r = v.settle();
        assert_eq!(r.invalid_manifests, 1);
        assert_eq!(r.expected_instances, 0);
        assert_eq!(r.shortfall(), 0.0);
    }

    #[test]
    fn flag_connection_matches_whole_bundle_settlement() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(evidence(0, &[1, 2, 3], None)); // clean
        v.add_connection(evidence(1, &[4, 5, 6, 7], Some(2))); // 5 corrupts
        v.add_connection(evidence(2, &[1, 2], Some(0))); // unattributable
        assert_eq!(v.flag_connection(0), None);
        assert_eq!(v.flag_connection(1), Some(account(5)));
        assert_eq!(v.flag_connection(2), None);
        assert_eq!(v.flag_connection(99), None, "out of range is no flag");
        // The per-connection flags are exactly the settlement flags.
        let settled = v.settle();
        assert_eq!(
            settled.flagged.iter().copied().collect::<Vec<_>>(),
            [account(5)]
        );
    }

    #[test]
    fn settle_drops_what_it_settled() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(evidence(0, &[1, 2, 3], None));
        v.add_connection(evidence(1, &[4, 5, 6], Some(1)));
        let first = v.settle();
        assert_eq!(first.validated_instances, 4);
        assert!(v.pending().is_empty(), "settled evidence must not linger");
        assert_eq!(v.flag_connection(0), None, "nothing left to flag");
        assert_eq!(v.settle(), ValidationReport::default());
        // The next window holds only what arrived after the settle.
        v.add_connection(evidence(2, &[7], None));
        assert_eq!(v.pending().len(), 1);
        assert_eq!(v.settle().paid_counts[&account(7)], 1);
    }

    /// Clique forgery: the responder pads the manifest with phantom mates
    /// and issues them valid receipts (it holds the bundle key, so every
    /// MAC verifies).
    fn forged_evidence(connection: u32, genuine: &[u64], phantoms: &[u64]) -> ConnectionEvidence {
        let mut hops: Vec<AccountId> = genuine.iter().map(|&i| account(i)).collect();
        hops.extend(phantoms.iter().map(|&i| account(i)));
        let manifest = PathManifest::issue(&KEY, BUNDLE, connection, hops.clone());
        let receipts = hops
            .iter()
            .enumerate()
            .map(|(i, &acct)| Receipt::issue(&KEY, BUNDLE, connection, (i + 1) as u32, acct))
            .collect();
        ConnectionEvidence {
            manifest,
            receipts,
            observed_hops: Some(genuine.iter().map(|&i| account(i)).collect()),
        }
    }

    #[test]
    fn cross_check_withholds_phantom_payouts_and_names_the_accounts() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        v.add_connection(forged_evidence(0, &[1, 2], &[8, 9]));
        let r = v.settle();
        // Genuine work is paid in full; the forged MAC-valid suffix is not.
        assert_eq!(r.expected_instances, 2);
        assert_eq!(r.validated_instances, 2);
        assert_eq!(r.shortfall(), 0.0, "forgery must not dilute shortfall");
        assert_eq!(r.phantom_instances, 2);
        let phantoms: Vec<u64> = r.phantom_accounts.iter().map(|a| a.0).collect();
        assert_eq!(phantoms, [8, 9]);
        assert!(!r.paid_counts.contains_key(&account(8)));
        assert!(!r.paid_counts.contains_key(&account(9)));
        assert!(
            r.flagged.is_empty(),
            "phantoms are reported, not confused with corrupters"
        );
    }

    #[test]
    fn cross_check_off_pays_the_forged_suffix() {
        // Without observed hops the forgery is indistinguishable from
        // genuine evidence — the attack wins, which is exactly what the
        // adversary-zoo leakage metric measures.
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut ev = forged_evidence(0, &[1, 2], &[8]);
        ev.observed_hops = None;
        v.add_connection(ev);
        let r = v.settle();
        assert_eq!(r.validated_instances, 3);
        assert_eq!(r.paid_counts[&account(8)], 1);
        assert_eq!(r.phantom_instances, 0);
    }

    #[test]
    fn cross_check_with_matching_observation_is_invisible() {
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut honest = evidence(0, &[1, 2, 3], None);
        honest.observed_hops = Some(vec![account(1), account(2), account(3)]);
        v.add_connection(honest);
        let baseline = {
            let mut vb = PathValidator::new(KEY_BYTES, BUNDLE);
            vb.add_connection(evidence(0, &[1, 2, 3], None));
            vb.settle()
        };
        assert_eq!(v.settle(), baseline, "honest evidence is unaffected");
    }

    #[test]
    fn cross_check_composes_with_receipt_corruption() {
        // A cheater corrupts the genuine suffix while the responder pads
        // phantoms: the intact-prefix rule still pins the corrupter, and
        // the phantoms are still withheld.
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let genuine = [4u64, 5, 6];
        let mut ev = forged_evidence(0, &genuine, &[8]);
        for r in &mut ev.receipts {
            if r.hop > 1 && r.hop <= 3 {
                r.mac[0] ^= 0x55; // corrupt genuine hops 2..=3
            }
        }
        v.add_connection(ev);
        let r = v.settle();
        assert_eq!(r.flagged.iter().copied().collect::<Vec<_>>(), [account(4)]);
        assert_eq!(r.phantom_instances, 1);
        assert_eq!(r.validated_instances, 1);
    }

    #[test]
    fn receipt_for_wrong_forwarder_breaks_at_that_hop() {
        // A receipt redirected to another account fails the manifest match
        // even though its MAC verifies for the original fields.
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut ev = evidence(0, &[1, 2, 3], None);
        ev.receipts[1] = Receipt::issue(&KEY, BUNDLE, 0, 2, account(8));
        v.add_connection(ev);
        let r = v.settle();
        assert_eq!(r.validated_instances, 2);
        assert_eq!(r.flagged.iter().copied().collect::<Vec<_>>(), [account(1)]);
    }

    #[test]
    fn forged_copy_before_the_genuine_receipt_takes_nothing_away() {
        // Receipts [forged hop 1, genuine hop 1, genuine hop 2]: the
        // genuine receipt pays hop 1 wherever it sits in the list.
        let mut v = PathValidator::new(KEY_BYTES, BUNDLE);
        let mut ev = evidence(0, &[1, 2], None);
        let mut forged = ev.receipts[0].clone();
        forged.mac[0] ^= 0x55;
        ev.receipts.insert(0, forged);
        v.add_connection(ev);
        let r = v.settle();
        assert_eq!((r.validated_instances, r.expected_instances), (2, 2));
        assert!(r.flagged.is_empty());
        assert_eq!(r.unattributed, 0);
    }
}
