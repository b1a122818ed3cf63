//! Figure 11a: accuracy is preserved under MinatoLoader's reordering.
//!
//! Unlike the simulator-backed figures, this experiment runs the *real*
//! threaded loaders end-to-end: a synthetic classification task with
//! per-sample preprocessing delays (every 5th sample slow, as in the
//! speech microbenchmark) is trained with the PyTorch-style baseline and
//! with MinatoLoader, feeding the exact batches each loader emits into an
//! identical MLP. The paper's claim to reproduce: the accuracy trajectory
//! matches, while MinatoLoader finishes in less wall time.

use minato_baselines::torch::{TorchConfig, TorchLoader};
use minato_core::balancer::TimeoutPolicy;
use minato_core::prelude::*;
use minato_metrics::table::{fnum, Table};
use minato_nn::{Mlp, MlpConfig, SyntheticTask};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Sample = (usize, Vec<f32>, usize);

/// Accuracy curve of one training run.
#[derive(Debug, Clone)]
pub struct AccuracyRun {
    /// Loader name.
    pub name: String,
    /// `(iteration, eval accuracy)` checkpoints.
    pub curve: Vec<(usize, f64)>,
    /// Wall-clock training time.
    pub wall: Duration,
    /// Final accuracy.
    pub final_accuracy: f64,
}

struct Delay {
    light: Duration,
    heavy: Duration,
}

impl Transform<Sample> for Delay {
    fn name(&self) -> &str {
        "augment-delay"
    }

    fn apply(&self, s: Sample, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<Sample>> {
        // Every 5th sample is slow (the speech microbenchmark pattern).
        let total = if s.0.is_multiple_of(5) {
            self.heavy
        } else {
            self.light
        };
        // Sleep in slices so the balancer's deadline can interrupt.
        let start = Instant::now();
        while start.elapsed() < total {
            if ctx.expired() {
                return Ok(Outcome::Interrupted(s));
            }
            std::thread::sleep(Duration::from_micros(300).min(total));
        }
        Ok(Outcome::Done(s))
    }
}

fn train_with<I>(
    name: &str,
    batches: I,
    eval: &SyntheticTask,
    dim: usize,
    classes: usize,
    eval_every: usize,
) -> AccuracyRun
where
    I: Iterator<Item = Batch<Sample>>,
{
    let mut model = Mlp::new(MlpConfig {
        input_dim: dim,
        hidden_dim: 32,
        classes,
        lr: 0.05,
        seed: 1234, // Same init for both loaders.
    });
    let t0 = Instant::now();
    let mut curve = Vec::new();
    let mut it = 0usize;
    for batch in batches {
        let xs: Vec<Vec<f32>> = batch.samples.iter().map(|s| s.1.clone()).collect();
        let ys: Vec<usize> = batch.samples.iter().map(|s| s.2).collect();
        if xs.is_empty() {
            continue;
        }
        model.train_batch(&xs, &ys);
        it += 1;
        if it.is_multiple_of(eval_every) {
            curve.push((it, model.accuracy(&eval.features, &eval.labels)));
        }
    }
    let wall = t0.elapsed();
    let final_accuracy = model.accuracy(&eval.features, &eval.labels);
    curve.push((it, final_accuracy));
    AccuracyRun {
        name: name.to_string(),
        curve,
        wall,
        final_accuracy,
    }
}

/// Runs the accuracy experiment; `n` training samples, `epochs` passes.
pub fn run(n: usize, epochs: usize, batch_size: usize) -> (AccuracyRun, AccuracyRun) {
    let dim = 16;
    let classes = 4;
    let train = SyntheticTask::blobs(dim, classes, n, 77);
    let eval = SyntheticTask::blobs(dim, classes, 400, 78);
    let samples: Vec<Sample> = train
        .features
        .iter()
        .zip(&train.labels)
        .enumerate()
        .map(|(i, (x, &y))| (i, x.clone(), y))
        .collect();
    let delay = || {
        Arc::new(Delay {
            light: Duration::from_micros(700),
            heavy: Duration::from_millis(15),
        }) as Arc<dyn Transform<Sample>>
    };

    let torch_run = {
        let loader = TorchLoader::new(
            VecDataset::new(samples.clone()),
            Pipeline::new(vec![delay()]),
            TorchConfig {
                batch_size,
                num_workers: 4,
                epochs,
                shuffle: true,
                seed: 5,
            },
        )
        .expect("torch loader builds");
        train_with("PyTorch-style", loader.iter(), &eval, dim, classes, 20)
    };

    let minato_run = {
        let loader = MinatoLoader::builder(VecDataset::new(samples), Pipeline::new(vec![delay()]))
            .batch_size(batch_size)
            .epochs(epochs)
            .seed(5)
            .max_workers(4)
            .slow_workers(4)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
            .build()
            .expect("minato loader builds");
        train_with("MinatoLoader", loader.iter(), &eval, dim, classes, 20)
    };
    (torch_run, minato_run)
}

/// Renders the Figure 11a comparison.
pub fn fig11_accuracy(quick: bool) -> String {
    let (n, epochs, batch) = if quick { (600, 2, 8) } else { (2000, 4, 8) };
    let (torch, minato) = run(n, epochs, batch);
    let mut t = Table::new(&["iteration", &torch.name, &minato.name]);
    let max_len = torch.curve.len().max(minato.curve.len());
    for i in 0..max_len {
        let (it, a) = torch.curve.get(i).copied().unwrap_or((0, f64::NAN));
        let (_, b) = minato.curve.get(i).copied().unwrap_or((0, f64::NAN));
        t.row_owned(vec![format!("{it}"), fnum(a, 3), fnum(b, 3)]);
    }
    format!(
        "Figure 11a — accuracy preserved under reordering (paper: same curve, 60% faster)\n{}\n\
         final accuracy: {} {:.3} vs {} {:.3} (Δ {:.3})\n\
         wall time: {} {:.2}s vs {} {:.2}s ({:.0}% faster)\n",
        t.render(),
        torch.name,
        torch.final_accuracy,
        minato.name,
        minato.final_accuracy,
        (torch.final_accuracy - minato.final_accuracy).abs(),
        torch.name,
        torch.wall.as_secs_f64(),
        minato.name,
        minato.wall.as_secs_f64(),
        (1.0 - minato.wall.as_secs_f64() / torch.wall.as_secs_f64().max(1e-9)) * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_matches_and_minato_is_faster() {
        let (torch, minato) = run(300, 2, 8);
        // Same-converging accuracy (both should learn the separable
        // blobs well).
        assert!(
            torch.final_accuracy > 0.8,
            "baseline failed to learn: {}",
            torch.final_accuracy
        );
        assert!(
            (torch.final_accuracy - minato.final_accuracy).abs() < 0.1,
            "accuracy diverged: {} vs {}",
            torch.final_accuracy,
            minato.final_accuracy
        );
        // Minato must not be slower (every 5th sample stalls the
        // baseline's in-order delivery).
        assert!(
            minato.wall <= torch.wall,
            "minato {:?} vs torch {:?}",
            minato.wall,
            torch.wall
        );
    }
}
