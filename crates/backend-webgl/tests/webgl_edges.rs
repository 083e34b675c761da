//! The WebGL rung where the compute rungs do not go: the half-precision
//! profile, texture packing switched off, and tensors above rank 8. The
//! calls every rung runs on the f32 profile are checked against `cpu` in
//! `webml-backend-webgpu`'s contract suite.

#[path = "support/oracle_calls.rs"]
mod oracle_calls;

use oracle_calls::{case, cases, differing, f32s, run, Case};
use std::borrow::Cow;
use std::sync::mpsc;
use std::time::Duration;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_core::backend::{BinaryOp, KernelCall, ReduceOp};
use webml_core::cpu::CpuBackend;
use webml_core::TensorData;
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::f16;

fn webgl(profile: DeviceProfile, packing: bool) -> WebGlBackend {
    WebGlBackend::new(profile, WebGlConfig { packing, ..Default::default() }).unwrap()
}

/// Each call, packed and not, against `cpu`: on the f32 profile on bits; on
/// the half-precision one on the bits of `cpu` over the f16-rounded
/// operands, its result rounded to f16.
#[test]
fn every_oracle_call_matches_cpu_with_packing_on_and_off_and_on_an_f16_device() {
    let cpu = CpuBackend::new();
    let mut differ = Vec::new();
    for (profile, half) in
        [(DeviceProfile::intel_iris_pro(), false), (DeviceProfile::ios_safari(), true)]
    {
        for packing in [true, false] {
            let b = webgl(profile.clone(), packing);
            for mut case in cases() {
                let got = run(&b, &case).unwrap();
                let round = |v: &mut Vec<f32>| v.iter_mut().for_each(|x| *x = f16::round(*x));
                if half {
                    for (_, _, data) in &mut case.operands {
                        if let TensorData::F32(v) = data {
                            round(v);
                        }
                    }
                }
                let mut want = run(&cpu, &case).unwrap();
                if half {
                    round(&mut want);
                }
                let n = differing(&got, &want);
                if n > 0 {
                    let on = format!("{} packing {packing}", profile.name);
                    differ.push(format!(
                        "{on}: {}: {n} of {} outputs differ",
                        case.name,
                        want.len()
                    ));
                }
            }
        }
    }
    assert!(differ.is_empty(), "{}", differ.join("\n"));
}

/// Rank-9 calls: a broadcast `add` (whose program addresses at most rank 8,
/// so the rung hands it to the oracle adapter), `transpose`, `slice`, `pad`
/// and `sum`. Each result is read on its own thread under a watchdog, so a
/// device thread that dies fails the test instead of hanging it.
#[test]
fn rank_nine_calls_match_cpu_on_bits() {
    use KernelCall as C;
    let dims = [2, 1, 2, 1, 2, 1, 2, 1, 3];
    let owned = |v: &[usize]| Cow::Owned(v.to_vec());
    let rank9 = vec![
        case(
            "broadcast add",
            C::Binary(BinaryOp::Add),
            vec![f32s(&dims, 1), f32s(&[1, 2, 1, 1, 1, 1, 1, 2, 1], 2)],
        ),
        case(
            "transpose",
            C::Transpose { perm: owned(&[8, 7, 6, 5, 4, 3, 2, 1, 0]) },
            vec![f32s(&dims, 3)],
        ),
        case(
            "slice",
            C::Slice {
                begin: owned(&[0, 0, 1, 0, 0, 0, 1, 0, 1]),
                size: owned(&[2, 1, 1, 1, 2, 1, 1, 1, 2]),
            },
            vec![f32s(&dims, 4)],
        ),
        case(
            "pad",
            C::Pad {
                paddings: Cow::Owned(
                    [(1, 0)].into_iter().chain([(0, 0); 7]).chain([(0, 1)]).collect(),
                ),
                value: -1.0,
            },
            vec![f32s(&dims, 5)],
        ),
        case("sum", C::Reduce { op: ReduceOp::Sum, axes: owned(&[0, 8]) }, vec![f32s(&dims, 6)]),
    ];
    let cpu = CpuBackend::new();
    for case in rank9 {
        let want = run(&cpu, &case).unwrap();
        for packing in [true, false] {
            let got = read_under_watchdog(&case, packing);
            assert_eq!(differing(&got, &want), 0, "rank-9 {} packing {packing}", case.name);
        }
    }
}

/// `case` run on a fresh webgl backend on another thread; fails after 20 s
/// without a reply. It fails at the first silent device rather than
/// collecting them: a test process left with many parked callers was seen
/// to hang at exit.
fn read_under_watchdog(case: &Case, packing: bool) -> Vec<f32> {
    let (tx, rx) = mpsc::channel();
    let sent = Case { name: case.name.clone(), call: case.call.clone(), operands: case.operands.clone() };
    std::thread::spawn(move || {
        let b = webgl(DeviceProfile::intel_iris_pro(), packing);
        let _ = tx.send(run(&b, &sent));
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(got) => got.unwrap(),
        Err(_) => panic!("rank-9 {} packing {packing}: no result within 20 s", case.name),
    }
}
