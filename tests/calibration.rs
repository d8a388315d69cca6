//! Integration: the measured backend auto-tuning behind `Ring::auto` —
//! memoized determinism, the `MQX_BACKEND` pin, and the winner
//! invariants.
//!
//! The process environment is shared across the parallel test threads,
//! so every test in this binary that *reads* `MQX_BACKEND` — the auto
//! builds — takes [`ENV_LOCK`] while `env_overrides_round_trip` mutates
//! it (concurrent getenv/setenv is undefined behavior on glibc). The
//! calibration itself, memoized or a fresh `calibrate::run`, never
//! consults the environment.

use mqx::backend::{self, calibrate, Tier};
use mqx::core::primes;
use mqx::{Error, Ring, RnsRing};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests that read or write `MQX_BACKEND`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn calibration_is_memoized_and_deterministic() {
    let first = backend::calibration();
    let second = backend::calibration();
    // Same object: the measurement ran at most once in this process.
    assert!(std::ptr::eq(first, second));
    let names: Vec<_> = first.ranking().iter().map(|b| b.name()).collect();
    let again: Vec<_> = second.ranking().iter().map(|b| b.name()).collect();
    assert_eq!(names, again);
    assert_eq!(first.winner().name(), names[0]);
}

#[test]
fn calibrated_winner_is_consumable_and_never_mqx() {
    let cal = calibrate::run();
    let winner = cal.winner();
    assert!(winner.consumable());
    assert_ne!(winner.tier(), Tier::Mqx);
    // The winner is the registry instance, not a fresh mint.
    assert!(Arc::ptr_eq(
        &winner,
        &backend::by_name(winner.name()).unwrap()
    ));
    // Every ranked backend is consumable non-MQX, ordered by score.
    let scores: Vec<f64> = cal
        .ranking()
        .iter()
        .map(|b| {
            assert!(b.consumable(), "{}", b.name());
            assert_ne!(b.tier(), Tier::Mqx, "{}", b.name());
            cal.score_of(b.name()).expect("ranked ⇒ measured")
        })
        .collect();
    assert!(scores.windows(2).all(|w| w[0] <= w[1]), "{scores:?}");
}

#[test]
fn pin_selection_honors_names_and_rejects_unknowns() {
    // A pinned name resolves to the memoized registry instance.
    let pinned = calibrate::select(Some("portable")).unwrap();
    assert!(Arc::ptr_eq(&pinned, &backend::by_name("portable").unwrap()));
    // Unknown names surface as UnknownBackend with the actual registry.
    match calibrate::select(Some("tpu-v9")).unwrap_err() {
        Error::UnknownBackend { name, available } => {
            assert_eq!(name, "tpu-v9");
            assert!(available.contains(&"portable"));
        }
        other => panic!("unexpected error {other:?}"),
    }
    // A registered-but-non-consumable pin (PISA: wrong numbers by
    // design) is rejected too — an ambient env var must never poison
    // auto-built rings. The slow-but-correct mqx-functional stays
    // pinnable.
    assert!(matches!(
        calibrate::select(Some("mqx-pisa")).unwrap_err(),
        Error::NonConsumableBackend { ref name } if name == "mqx-pisa"
    ));
    assert_eq!(
        calibrate::select(Some("mqx-functional")).unwrap().name(),
        "mqx-functional"
    );
    // No pin: the memoized calibration winner.
    let auto = calibrate::select(None).unwrap();
    assert!(Arc::ptr_eq(&auto, &backend::calibration().winner()));
}

#[test]
fn channel_assignments_draw_from_the_ranking() {
    let cal = backend::calibration();
    let channels = cal.channel_backends(6);
    assert_eq!(channels.len(), 6);
    assert!(Arc::ptr_eq(&channels[0], &cal.winner()));
    let ranked_names: Vec<_> = cal.ranking().iter().map(|b| b.name()).collect();
    for b in &channels {
        assert!(b.consumable());
        assert_ne!(b.tier(), Tier::Mqx);
        assert!(ranked_names.contains(&b.name()), "{}", b.name());
    }
}

#[test]
fn env_overrides_round_trip() {
    // Sequential env scenarios (see the module docs for why these all
    // live in one test).
    let _guard = env_lock();
    std::env::set_var("MQX_BACKEND", "portable");
    let ring = Ring::auto(primes::Q124, 64).expect("pinned build");
    assert_eq!(ring.backend().name(), "portable");
    let rns = RnsRing::auto(2, 64).expect("pinned RNS build");
    assert_eq!(rns.backend_names(), ["portable", "portable"]);

    // Shell-quoting artifacts must not break the pin: surrounding
    // whitespace is trimmed before the registry lookup.
    std::env::set_var("MQX_BACKEND", " portable ");
    let ring = Ring::auto(primes::Q124, 64).expect("whitespace-padded pin");
    assert_eq!(ring.backend().name(), "portable");

    // An all-whitespace value counts as unset, like the empty string.
    std::env::set_var("MQX_BACKEND", "   ");
    let ring = Ring::auto(primes::Q124, 64).expect("blank pin is unset");
    assert_eq!(
        ring.backend().name(),
        backend::calibration().winner().name()
    );

    std::env::set_var("MQX_BACKEND", "not-a-backend");
    match Ring::auto(primes::Q124, 64).unwrap_err() {
        Error::UnknownBackend { name, available } => {
            assert_eq!(name, "not-a-backend");
            assert!(available.contains(&"portable"));
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert!(matches!(
        RnsRing::auto(2, 64).unwrap_err(),
        Error::UnknownBackend { .. }
    ));

    std::env::remove_var("MQX_BACKEND");
    let ring = Ring::auto(primes::Q124, 64).expect("unpinned build");
    assert_eq!(
        ring.backend().name(),
        backend::calibration().winner().name()
    );
}

#[test]
fn rns_auto_channels_follow_the_calibrated_assignment() {
    // Auto builds read MQX_BACKEND; hold the lock so the env test's
    // mutations can't bleed in.
    let _guard = env_lock();
    let cal = backend::calibration();
    let ring = RnsRing::auto(3, 64).unwrap();
    let expected: Vec<_> = cal.channel_backends(3).iter().map(|b| b.name()).collect();
    assert_eq!(ring.backend_names(), expected);
    // Whatever tiers the channels landed on, the product is the same
    // as an all-portable ring's, bit for bit.
    let portable = RnsRing::builder(64)
        .moduli(ring.moduli())
        .backend_name("portable")
        .build()
        .unwrap();
    let q = ring.product_modulus().clone();
    let a: Vec<mqx::bignum::BigUint> = (0..64_u64)
        .map(|i| &mqx::bignum::BigUint::from(i * i + 3) % &q)
        .collect();
    let b: Vec<mqx::bignum::BigUint> = (0..64_u64)
        .map(|i| &mqx::bignum::BigUint::from(i * 7 + 1) % &q)
        .collect();
    assert_eq!(
        ring.polymul_negacyclic(&a, &b).unwrap(),
        portable.polymul_negacyclic(&a, &b).unwrap()
    );
}
