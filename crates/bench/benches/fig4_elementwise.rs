//! **Figure 4**: element-wise addition of two equally shaped matrices as a
//! fragment-shader program — one `main()` per output value, sampling both
//! inputs and writing via `setOutput`. Benchmarked directly against the
//! substrate (no engine overhead), across sizes, packed and unpacked, plus
//! the Listing 2 matmul shader.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use webml_webgl_sim::context::{ContextConfig, GpgpuContext};
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::shader::Kernel as Program;

fn add_program(n: usize, packed: bool) -> Program {
    if packed {
        Program::packed("AddPacked", vec![n], move |s, base| {
            let mut quad = [0.0f32; 4];
            for (i, q) in quad.iter_mut().enumerate() {
                if base + i < n {
                    *q = s.get_flat(0, base + i) + s.get_flat(1, base + i);
                }
            }
            quad
        })
    } else {
        Program::per_element("Add", vec![n], |s, flat, _| s.get_flat(0, flat) + s.get_flat(1, flat))
    }
}

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_elementwise_add");
    group.sample_size(10).measurement_time(Duration::from_secs(1)).warm_up_time(Duration::from_millis(300));
    let ctx = GpgpuContext::new(DeviceProfile::intel_iris_pro(), ContextConfig::default())
        .expect("supported device");
    for &side in &[64usize, 256] {
        let n = side * side;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
        let ta = ctx.upload(a, &[n]).unwrap();
        let tb = ctx.upload(bv, &[n]).unwrap();
        for packed in [false, true] {
            let label = if packed { "packed" } else { "unpacked" };
            group.bench_with_input(
                BenchmarkId::new(label, format!("{side}x{side}")),
                &n,
                |b, _| {
                    b.iter(|| {
                        let out = ctx.run(add_program(n, packed), &[&ta, &tb]).unwrap();
                        let v = ctx.read_sync(&out).unwrap();
                        ctx.dispose(&out);
                        v.len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_listing2_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("listing2_matmul_shader");
    group.sample_size(10).measurement_time(Duration::from_secs(1)).warm_up_time(Duration::from_millis(300));
    let ctx = GpgpuContext::new(DeviceProfile::intel_iris_pro(), ContextConfig::default())
        .expect("supported device");
    let n = 128usize;
    let a: Vec<f32> = (0..n * n).map(|i| (i as f32 * 0.001).sin()).collect();
    let bv: Vec<f32> = (0..n * n).map(|i| (i as f32 * 0.002).cos()).collect();
    let ta = ctx.upload(a, &[n, n]).unwrap();
    let tb = ctx.upload(bv, &[n, n]).unwrap();
    // Listing 2: per-output dot product with a 4-wide inner step.
    let prog = Program::per_element("MatMulListing2", vec![n, n], move |s, _, coords| {
        let (row, col) = (coords[0], coords[1]);
        let mut acc = 0.0f32;
        let mut i = 0;
        while i + 4 <= n {
            acc += s.get(0, &[row, i]) * s.get(1, &[i, col])
                + s.get(0, &[row, i + 1]) * s.get(1, &[i + 1, col])
                + s.get(0, &[row, i + 2]) * s.get(1, &[i + 2, col])
                + s.get(0, &[row, i + 3]) * s.get(1, &[i + 3, col]);
            i += 4;
        }
        acc
    })
    .with_cost(n * 2);
    group.bench_function("matmul_128_vec4_dot", |b| {
        b.iter(|| {
            let out = ctx.run(prog.clone(), &[&ta, &tb]).unwrap();
            let v = ctx.read_sync(&out).unwrap();
            ctx.dispose(&out);
            v.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig4, bench_listing2_matmul);
criterion_main!(benches);
