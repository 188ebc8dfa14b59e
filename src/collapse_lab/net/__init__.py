"""From-scratch feed-forward trainer: layers, model, data, training loop."""
