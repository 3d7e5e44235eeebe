//! Bearer payment tokens with blind bank signatures.
//!
//! A token is `(serial, value, signature)` where the signature is the
//! bank's RSA signature over `SHA-256(serial ‖ value)`. Because the bank
//! signed it *blindly* during withdrawal, a deposited token cannot be
//! linked to the account that withdrew it — the unlinkability property the
//! paper's payment mechanism needs to avoid deanonymising initiators.

use idpa_crypto::bigint::BigUint;
use idpa_crypto::blind::BlindingFactor;
use idpa_crypto::rsa::RsaPublicKey;
use idpa_crypto::sha256::Sha256;
use idpa_desim::rng::Xoshiro256StarStar;

/// A token's serial number: 32 random bytes drawn by the withdrawer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub [u8; 32]);

impl TokenId {
    /// Draws a fresh random serial.
    #[must_use]
    pub fn random(rng: &mut Xoshiro256StarStar) -> Self {
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes());
        }
        TokenId(bytes)
    }
}

/// The message representative the bank signs: `SHA-256(serial ‖ value)`
/// reduced mod n.
#[must_use]
pub fn token_digest(id: &TokenId, value: u64, key: &RsaPublicKey) -> BigUint {
    let mut h = Sha256::new();
    h.update(&id.0);
    h.update(&value.to_be_bytes());
    BigUint::from_bytes_be(&h.finalize()).rem(key.modulus())
}

/// A bearer token: whoever holds a valid token can deposit it once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Serial number (unique; double-spends are detected on it).
    pub id: TokenId,
    /// Face value in credits.
    pub value: u64,
    /// Bank signature over [`token_digest`].
    pub signature: BigUint,
}

impl Token {
    /// Verifies the bank signature.
    #[must_use]
    pub fn verify(&self, bank_key: &RsaPublicKey) -> bool {
        bank_key.raw_verify(&self.signature) == token_digest(&self.id, self.value, bank_key)
    }
}

/// A withdrawal in progress: the serial/value plus the blinding factor
/// needed to unblind the bank's response. Held client-side; the bank only
/// ever sees [`PendingWithdrawal::blinded`].
pub struct PendingWithdrawal {
    id: TokenId,
    value: u64,
    factor: BlindingFactor,
    blinded: BigUint,
}

impl PendingWithdrawal {
    /// Prepares a withdrawal of `value` credits: draws a serial, blinds its
    /// digest under the bank key.
    #[must_use]
    pub fn prepare(value: u64, bank_key: &RsaPublicKey, rng: &mut Xoshiro256StarStar) -> Self {
        let id = TokenId::random(rng);
        let digest = token_digest(&id, value, bank_key);
        let factor = BlindingFactor::random(bank_key, rng);
        let blinded = factor.blind(bank_key, &digest);
        PendingWithdrawal {
            id,
            value,
            factor,
            blinded,
        }
    }

    /// The blinded representative to send to the bank.
    #[must_use]
    pub fn blinded(&self) -> &BigUint {
        &self.blinded
    }

    /// The face value being withdrawn (the bank must know it to debit the
    /// account and apply the right denomination policy).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Unblinds the bank's blind signature into a spendable token.
    #[must_use]
    pub fn complete(self, bank_key: &RsaPublicKey, blind_sig: &BigUint) -> Token {
        Token {
            id: self.id,
            value: self.value,
            signature: self.factor.unblind(bank_key, blind_sig),
        }
    }
}

/// Errors during withdrawal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WithdrawError {
    /// The account balance does not cover the requested value.
    InsufficientFunds,
    /// The account does not exist.
    UnknownAccount,
    /// A credit would push a balance, or the outstanding bearer
    /// liability, past `u64::MAX`.
    BalanceOverflow,
}

/// A client-side purse of bearer tokens.
#[derive(Debug, Default)]
pub struct Wallet {
    tokens: Vec<Token>,
}

impl Wallet {
    /// An empty wallet.
    #[must_use]
    pub fn new() -> Self {
        Wallet::default()
    }

    /// Adds a token.
    pub fn put(&mut self, token: Token) {
        self.tokens.push(token);
    }

    /// Total face value held.
    #[must_use]
    pub fn balance(&self) -> u64 {
        self.tokens.iter().map(|t| t.value).sum()
    }

    /// Number of tokens held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the wallet is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Removes tokens totalling **exactly** `amount`, greedily largest
    /// first; returns `None` (wallet unchanged) if no exact subset is found
    /// by the greedy pass. Withdrawal denominations are chosen by
    /// [`denominations`], which guarantees greedy-exact representability.
    pub fn take_exact(&mut self, amount: u64) -> Option<Vec<Token>> {
        let mut remaining = amount;
        let mut indices: Vec<usize> = (0..self.tokens.len()).collect();
        indices.sort_by_key(|&i| std::cmp::Reverse(self.tokens[i].value));
        let mut chosen = Vec::new();
        for i in indices {
            if self.tokens[i].value <= remaining {
                remaining -= self.tokens[i].value;
                chosen.push(i);
                if remaining == 0 {
                    break;
                }
            }
        }
        if remaining != 0 {
            return None;
        }
        chosen.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back
        Some(chosen.into_iter().map(|i| self.tokens.remove(i)).collect())
    }
}

/// Splits `amount` into power-of-two denominations (binary representation),
/// the denomination policy used for withdrawals: any amount up to 2^63 is
/// representable, and greedy largest-first change-making is exact.
#[must_use]
pub fn denominations(amount: u64) -> Vec<u64> {
    (0..64)
        .filter(|bit| amount & (1 << bit) != 0)
        .map(|bit| 1u64 << bit)
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use idpa_crypto::rsa::RsaKeyPair;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn bank_keys(seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(256, &mut rng(seed))
    }

    fn mint(value: u64, bank: &RsaKeyPair, rng: &mut Xoshiro256StarStar) -> Token {
        let pending = PendingWithdrawal::prepare(value, bank.public(), rng);
        let blind_sig = bank.raw_sign(pending.blinded());
        pending.complete(bank.public(), &blind_sig)
    }

    #[test]
    fn withdrawal_produces_valid_token() {
        let bank = bank_keys(1);
        let mut r = rng(2);
        let token = mint(50, &bank, &mut r);
        assert_eq!(token.value, 50);
        assert!(token.verify(bank.public()));
    }

    #[test]
    fn tampered_value_fails_verification() {
        let bank = bank_keys(3);
        let mut r = rng(4);
        let mut token = mint(50, &bank, &mut r);
        token.value = 5000; // inflate the face value
        assert!(!token.verify(bank.public()));
    }

    #[test]
    fn tampered_serial_fails_verification() {
        let bank = bank_keys(5);
        let mut r = rng(6);
        let mut token = mint(50, &bank, &mut r);
        token.id.0[0] ^= 1;
        assert!(!token.verify(bank.public()));
    }

    #[test]
    fn token_from_wrong_bank_fails() {
        let bank_a = bank_keys(7);
        let bank_b = bank_keys(8);
        let mut r = rng(9);
        let token = mint(50, &bank_a, &mut r);
        assert!(!token.verify(bank_b.public()));
    }

    #[test]
    fn blinded_representative_differs_from_digest() {
        let bank = bank_keys(10);
        let mut r = rng(11);
        let pending = PendingWithdrawal::prepare(50, bank.public(), &mut r);
        let digest = token_digest(&pending.id, 50, bank.public());
        assert_ne!(pending.blinded(), &digest);
    }

    #[test]
    fn serials_are_unique() {
        let mut r = rng(12);
        let a = TokenId::random(&mut r);
        let b = TokenId::random(&mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn denominations_are_binary() {
        assert_eq!(denominations(0), Vec::<u64>::new());
        assert_eq!(denominations(1), vec![1]);
        assert_eq!(denominations(6), vec![2, 4]);
        assert_eq!(denominations(150), vec![2, 4, 16, 128]);
        assert_eq!(denominations(150).iter().sum::<u64>(), 150);
    }

    #[test]
    fn wallet_take_exact_with_binary_denoms() {
        let bank = bank_keys(13);
        let mut r = rng(14);
        let mut w = Wallet::new();
        for v in denominations(150) {
            w.put(mint(v, &bank, &mut r));
        }
        assert_eq!(w.balance(), 150);
        let taken = w.take_exact(130).expect("130 = 128 + 2");
        assert_eq!(taken.iter().map(|t| t.value).sum::<u64>(), 130);
        assert_eq!(w.balance(), 20);
    }

    #[test]
    fn wallet_take_exact_fails_without_subset() {
        let bank = bank_keys(15);
        let mut r = rng(16);
        let mut w = Wallet::new();
        w.put(mint(8, &bank, &mut r));
        assert!(w.take_exact(5).is_none());
        assert_eq!(w.balance(), 8, "failed take leaves wallet unchanged");
    }

    #[test]
    fn wallet_take_all() {
        let bank = bank_keys(17);
        let mut r = rng(18);
        let mut w = Wallet::new();
        w.put(mint(4, &bank, &mut r));
        w.put(mint(2, &bank, &mut r));
        let taken = w.take_exact(6).unwrap();
        assert_eq!(taken.len(), 2);
        assert!(w.is_empty());
    }
}
