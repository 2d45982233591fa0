//! Network building blocks: trainable layers, activations and containers.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;
mod reshape;
mod sequential;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;
pub use reshape::Reshape;
pub use sequential::Sequential;
