//! A timing decorator around any [`ConvBackend`]: it records the wall
//! time of every convolution call per layer and otherwise forwards the
//! call unchanged, so the layer is measured from outside the program.

use std::sync::Mutex;
use std::time::Instant;

use greuse_nn::ConvBackend;
use greuse_tensor::{ConvSpec, Tensor, TensorError};

/// Wraps a backend and times each call into it.
pub struct Timed<'a> {
    inner: &'a dyn ConvBackend,
    calls: Mutex<Vec<(String, f64)>>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn ConvBackend) -> Self {
        Timed {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Drains the `(layer, ms)` records taken since the last drain, in
    /// call order.
    pub fn take(&self) -> Vec<(String, f64)> {
        std::mem::take(&mut *self.calls.lock().expect("timing log poisoned"))
    }

    fn record(&self, layer: &str, started: Instant) {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.calls
            .lock()
            .expect("timing log poisoned")
            .push((layer.to_string(), ms));
    }
}

impl ConvBackend for Timed<'_> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        let started = Instant::now();
        let out = self.inner.conv_gemm(layer, spec, x, weights);
        self.record(layer, started);
        out
    }

    // Forwarded explicitly: `Conv2d::forward` calls `_into`, and the trait
    // default would route it through the allocating `conv_gemm` instead of
    // the wrapped backend's own `_into` path.
    fn conv_gemm_into(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let started = Instant::now();
        let out = self.inner.conv_gemm_into(layer, spec, x, weights, y);
        self.record(layer, started);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greuse::{EitherHashProvider, QuantizedBackend, ReuseBackend, ReusePattern};
    use greuse_nn::models::zoo::{ZooModel, ZooScale};
    use greuse_nn::DenseBackend;

    /// Records which entry point each call arrived through.
    #[derive(Default)]
    struct Probe(Mutex<Vec<&'static str>>);

    impl ConvBackend for Probe {
        fn conv_gemm(
            &self,
            layer: &str,
            spec: &ConvSpec,
            x: &Tensor<f32>,
            weights: &Tensor<f32>,
        ) -> Result<Tensor<f32>, TensorError> {
            self.0.lock().unwrap().push("conv_gemm");
            DenseBackend.conv_gemm(layer, spec, x, weights)
        }

        fn conv_gemm_into(
            &self,
            layer: &str,
            spec: &ConvSpec,
            x: &Tensor<f32>,
            weights: &Tensor<f32>,
            y: &mut Tensor<f32>,
        ) -> Result<(), TensorError> {
            self.0.lock().unwrap().push("conv_gemm_into");
            DenseBackend.conv_gemm_into(layer, spec, x, weights, y)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn decorator_is_bitwise_transparent_for_every_backend() {
        let net = ZooModel::CifarNet.build(ZooScale::Smoke, 10, 7);
        let image = Tensor::from_fn(&net.input_shape(), |i| ((i % 89) as f32 * 0.17).sin());
        let patterns = [("conv1", ReusePattern::conventional(25, 4))];
        let f32b = ReuseBackend::new(EitherHashProvider::random(3)).with_patterns(patterns);
        let q8b = QuantizedBackend::new(EitherHashProvider::random(3)).with_patterns(patterns);
        let backends: [&dyn ConvBackend; 3] = [&DenseBackend, &f32b, &q8b];
        for backend in backends {
            let plain = net.forward(&image, backend).unwrap();
            let timed = Timed::new(backend);
            let wrapped = net.forward(&image, &timed).unwrap();
            assert_eq!(bits(&plain), bits(&wrapped));
            let calls = timed.take();
            let layers: Vec<&str> = calls.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(layers, ["conv1", "conv2"]);
            assert!(calls.iter().all(|(_, ms)| *ms > 0.0));
            assert!(timed.take().is_empty());
        }
        // Each entry point reaches the wrapped backend's own method.
        let probe = Probe::default();
        net.forward(&image, &Timed::new(&probe)).unwrap();
        assert_eq!(
            *probe.0.lock().unwrap(),
            ["conv_gemm_into", "conv_gemm_into"]
        );
        // The allocating entry point is forwarded as well.
        let x = Tensor::from_fn(&[40, 75], |i| ((i % 13) as f32 * 0.3).cos());
        let w = Tensor::from_fn(&[8, 75], |i| ((i % 7) as f32 * 0.2).sin());
        let spec = ConvSpec::new(3, 8, 5, 5);
        for backend in backends {
            let want = backend.conv_gemm("conv1", &spec, &x, &w).unwrap();
            let timed = Timed::new(backend);
            let got = timed.conv_gemm("conv1", &spec, &x, &w).unwrap();
            assert_eq!(bits(want.as_slice()), bits(got.as_slice()));
            assert_eq!(timed.take().len(), 1);
        }
        let probe = Probe::default();
        Timed::new(&probe)
            .conv_gemm("conv1", &spec, &x, &w)
            .unwrap();
        assert_eq!(*probe.0.lock().unwrap(), ["conv_gemm"]);
    }
}
