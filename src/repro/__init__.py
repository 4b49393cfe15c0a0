"""BatchZK reproduction — a fully pipelined (simulated) GPU system for
batch generation of zero-knowledge proofs.

Reproduces *BatchZK* (ASPLOS 2025): real implementations of every
cryptographic component (prime fields, SHA-256, Merkle trees, sum-check,
Spielman linear-time encoder, Brakedown commitment, a Spartan-style
SNARK, verifiable ML) plus a calibrated GPU simulator that regenerates
every table and figure of the paper's evaluation.

Subpackages (see DESIGN.md for the full inventory):

==============  ======================================================
``field``       prime-field arithmetic, polynomials, multilinear/eq
``hashing``     from-scratch SHA-256, Fiat–Shamir transcripts
``merkle``      Merkle trees and multiproofs
``sumcheck``    Algorithm 1, product sum-check, Figure 5 buffers
``encoder``     Spielman/Brakedown expander code, warp scheduling
``commitment``  Brakedown polynomial commitment
``core``        circuits, R1CS, the SNARK, batch proving
``gpu``         device catalog, cost models, the cycle simulator
``pipeline``    module stage graphs, the Figure 7 system
``runtime``     process-pool parallel proving with retries + metrics
``execution``   unified proving backends (serial/pool/lanes), traces
``cluster``     multi-node proving: wire protocol, ring routing,
                autoscaling (``remote:``/``cluster:`` selectors)
``baselines``   vendor and CPU-rate models of the paper's baselines
``zkml``        quantized CNNs, VGG-16, the MLaaS service
``bench``       table/figure regeneration runners
==============  ======================================================
"""

from .field import DEFAULT_FIELD, PrimeField

__version__ = "1.0.0"

__all__ = ["DEFAULT_FIELD", "PrimeField", "__version__"]
