"""Numerical laboratory for normalization-scale collapse under noisy SGD.

Three views of the same phenomenon, kept independent so they can check
each other:

* ``analytic``: closed-form one-step drift of the dead-unit probability,
  built from a kernel K and its expectation J over the bias distribution.
* ``mc``: direct simulation of the scale/bias update rule on large neuron
  ensembles, with antithetic noise pairing so second-order drift is
  measurable at realistic learning rates.
* ``net``: a small from-scratch MLP whose normalization layers actually
  collapse under weight decay, plus the post-shift variant that recovers.

``sparsity`` counts the damage (dead channels, prunable FLOPs), and
``cli`` ties everything to files on disk. Import names from the module
that defines them: each module's ``__all__`` lists its public names, and
the packages re-export none.
"""
