//! `Tensor::backward_to`: gradients only along paths from the listed
//! tensors, kept only in them, with the bits `backward()` gives them.

use revelio_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.grad_vec().iter().map(|g| g.to_bits()).collect()
}

/// A two-layer chain `loss = Σ leaky(x·W1)·W2 ⊙ m` with a mask `m` — the
/// shape of a masked GNN forward, where `x`, `W1`, `W2` are constants to an
/// explainer and `m` is its parameter.
struct Chain {
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    m: Tensor,
}

impl Chain {
    fn new() -> Chain {
        Chain {
            x: Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75], 3, 2),
            w1: Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.4], 2, 2).requires_grad(),
            w2: Tensor::from_vec(vec![1.1, -0.6], 2, 1).requires_grad(),
            m: Tensor::from_vec(vec![0.2, 0.7, -0.4], 3, 1).requires_grad(),
        }
    }

    /// The hidden layer (returned so a test can list it) and the loss.
    fn forward(&self) -> (Tensor, Tensor) {
        let hidden = self.x.matmul(&self.w1).leaky_relu(0.01);
        let loss = hidden.matmul(&self.w2).mul_col_broadcast(&self.m).sum_all();
        (hidden, loss)
    }

    fn all(&self) -> [&Tensor; 4] {
        [&self.x, &self.w1, &self.w2, &self.m]
    }
}

#[test]
fn only_listed_leaves_receive_gradients_with_unchanged_bits() {
    let c = Chain::new();
    c.forward().1.backward();
    let want = bits(&c.m);
    // `backward()` writes into every leaf, constants included.
    assert!(c.all().iter().all(|t| t.has_grad()));
    for t in c.all() {
        t.zero_grad();
    }

    c.forward().1.backward_to(std::slice::from_ref(&c.m));
    assert_eq!(bits(&c.m), want);
    for t in [&c.x, &c.w1, &c.w2] {
        assert!(!t.has_grad(), "a tensor off the mask's path got a gradient");
    }
}

#[test]
fn a_listed_non_leaf_keeps_its_gradient_and_stops_the_walk() {
    let c = Chain::new();
    let (hidden, loss) = c.forward();
    let hidden = hidden.requires_grad();
    loss.backward();
    let want = bits(&hidden);
    for t in c.all() {
        t.zero_grad();
    }
    hidden.zero_grad();

    // Unflagged, as a feature map handed to GradCAM would be: listing it is
    // enough to keep its gradient.
    let (hidden, loss) = c.forward();
    loss.backward_to(std::slice::from_ref(&hidden));
    assert_eq!(bits(&hidden), want);
    // Nothing below the listed tensor is differentiated.
    for t in [&c.x, &c.w1] {
        assert!(!t.has_grad());
    }
    // Nothing else gets a gradient either.
    for t in [&c.w2, &c.m] {
        assert!(!t.has_grad());
    }
}

#[test]
fn a_listed_constant_leaf_receives_its_gradient() {
    let c = Chain::new();
    c.forward().1.backward();
    let want = bits(&c.x);
    for t in c.all() {
        t.zero_grad();
    }
    // Input features are a leaf without `requires_grad` (DeepLIFT lists
    // them).
    c.forward().1.backward_to(std::slice::from_ref(&c.x));
    assert_eq!(bits(&c.x), want);
    for t in [&c.w1, &c.w2, &c.m] {
        assert!(!t.has_grad());
    }
}

#[test]
fn gradients_accumulate_across_calls_like_backward() {
    let c = Chain::new();
    c.forward().1.backward();
    c.forward().1.backward();
    let want = bits(&c.m);
    for t in c.all() {
        t.zero_grad();
    }
    c.forward().1.backward_to(std::slice::from_ref(&c.m));
    c.forward().1.backward_to(std::slice::from_ref(&c.m));
    assert_eq!(bits(&c.m), want);
}

#[test]
fn a_loss_off_every_listed_path_is_a_no_op() {
    let c = Chain::new();
    let unrelated = Tensor::scalar(2.0).requires_grad();
    c.forward().1.backward_to(std::slice::from_ref(&unrelated));
    assert!(!unrelated.has_grad());
    assert!(c.all().iter().all(|t| !t.has_grad()));
}

#[test]
#[should_panic(expected = "scalar loss")]
fn backward_to_requires_a_scalar() {
    let c = Chain::new();
    c.x.matmul(&c.w1).backward_to(std::slice::from_ref(&c.w1));
}
