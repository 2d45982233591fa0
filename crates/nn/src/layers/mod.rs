//! Network building blocks: trainable layers, activations and containers.

mod activation;
mod conv;
mod dense;
mod pool;
mod sequential;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use pool::MaxPool2d;
pub use sequential::Sequential;
