//! # gm-crypto — hashes, MACs and simulation-grade signatures
//!
//! The paper's security model (§3.1) needs three primitives: a collision-
//! resistant hash (receipt ids, token fingerprints), a MAC (bank-internal
//! integrity), and a public-key signature scheme (Grid identities signing
//! `receipt ‖ DN` bindings, bank-signed transfer receipts).
//!
//! * [`sha256()`] / [`Sha256`] — a from-scratch FIPS 180-4 SHA-256 with the
//!   standard test vectors. On x86-64 CPUs with the SHA extensions the
//!   compression function runs on them (`core::arch` intrinsics in the
//!   crate's one `unsafe fn`), chosen at run time by feature detection
//!   with no feature flag or option; every other CPU runs the portable
//!   loop, which is also the oracle the hardware kernel is tested
//!   against. Both give identical bytes.
//! * [`hmac_sha256`] — RFC 2104 HMAC over it, checked against RFC 4231.
//!   A signing key keeps its HMAC key with the pads already absorbed.
//! * [`sig`] — a Schnorr signature over the multiplicative group of the
//!   Mersenne field `GF(2¹²⁷ − 1)` with deterministic (RFC 6979-flavoured)
//!   nonces; powers of the generator and of a [`PreparedKey`] go through
//!   fixed-base comb tables.
//!
//! ## ⚠ Simulation-grade, not production crypto
//!
//! The paper's deployment used Grid PKI (X.509 / GSI). Reimplementing
//! production-hardened crypto is out of scope for a scheduling-systems
//! reproduction; what matters here is that the *protocol* — sign, verify,
//! reject double-spends, bind capabilities to identities — is executed
//! end-to-end with real (if small) keys. The Schnorr group is ~126 bits
//! and the implementation is not constant-time: besides data-dependent
//! branches, the comb tables are indexed by digits of secret exponents.
//! Do not reuse outside this simulator. (Documented in `DESIGN.md` §2.)

pub mod field;
pub mod hmac;
pub mod sha256;
pub mod sig;

pub use hmac::hmac_sha256;
pub use sha256::{sha256, Sha256};
pub use sig::{Keypair, PreparedKey, PublicKey, Signature};
