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

use mqx::backend::{self, calibrate};
use mqx::core::primes;
use mqx::{Coefficients, Error, PolyOp, PolyRing, Ring, RingOp, RnsRing};
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
    // The winner is the registry instance, not a fresh mint.
    assert!(Arc::ptr_eq(
        &winner,
        &backend::by_name(winner.name()).unwrap()
    ));
    // Every ranked backend is a registry (hardware) tier, ordered by
    // score.
    let scores: Vec<f64> = cal
        .ranking()
        .iter()
        .map(|b| {
            assert!(backend::names().contains(&b.name()), "{}", b.name());
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
    // The paper's MQX engines are measurement tools, not serving
    // tiers: the registry does not hold them, so neither mode can be
    // pinned — PISA's wrong-by-design numbers can never reach an
    // auto-built ring.
    for name in ["mqx-pisa", "mqx-functional"] {
        assert!(matches!(
            calibrate::select(Some(name)).unwrap_err(),
            Error::UnknownBackend { name: ref rejected, .. } if rejected == name
        ));
    }
    // No pin: the memoized calibration winner.
    let auto = calibrate::select(None).unwrap();
    assert!(Arc::ptr_eq(&auto, &backend::calibration().winner()));
}

/// The backend auto selection resolves to: the calibration winner, or
/// the tier an ambient `MQX_BACKEND` pin (a documented knob) names.
/// Callers hold [`ENV_LOCK`].
fn auto_selected() -> Arc<dyn backend::Backend> {
    match std::env::var("MQX_BACKEND") {
        Ok(pin) if !pin.trim().is_empty() => backend::by_name(pin.trim()).unwrap(),
        _ => backend::calibration().winner(),
    }
}

#[test]
fn channel_assignments_draw_from_the_ranking() {
    // Every channel of an auto RNS ring holds the winner's Arc: one
    // selection per ring, not one per channel.
    let _guard = env_lock();
    let ring = RnsRing::auto(3, 64).unwrap();
    let expected = auto_selected();
    assert_eq!(ring.rings().len(), 3);
    for channel in ring.rings() {
        assert!(std::ptr::addr_eq(channel.backend(), Arc::as_ptr(&expected)));
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
    let ring = RnsRing::auto(3, 64).unwrap();
    assert_eq!(ring.backend_names(), [auto_selected().name(); 3]);
    // The selected tier's product is the same as an all-portable
    // ring's, bit for bit.
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
    let (a, b) = (Coefficients::Big(a), Coefficients::Big(b));
    let op = RingOp::Polymul(PolyOp::Negacyclic);
    assert_eq!(
        ring.apply(&op, &a, Some(&b)).unwrap(),
        portable.apply(&op, &a, Some(&b)).unwrap()
    );
}
