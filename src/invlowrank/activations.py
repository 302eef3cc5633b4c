"""Elementwise activations and their derivatives.

relu'(0) is fixed to 0 so every computation is deterministic; the leaky
slope is 0.01.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

LEAKY_SLOPE = 0.01


def relu(x):
    return np.maximum(x, 0.0)


def relu_prime(x):
    return (x > 0).astype(float)


def leaky_relu(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def leaky_relu_prime(x):
    return np.where(x > 0, 1.0, LEAKY_SLOPE)


def tanh(x):
    return np.tanh(x)


def tanh_prime(x):
    t = np.tanh(x)
    return 1.0 - t * t


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_prime(x):
    s = sigmoid(x)
    return s * (1.0 - s)


ACTIVATIONS = {
    "relu": (relu, relu_prime),
    "leaky_relu": (leaky_relu, leaky_relu_prime),
    "tanh": (tanh, tanh_prime),
    "sigmoid": (sigmoid, sigmoid_prime),
}


def get_activation(name: str):
    try:
        return ACTIVATIONS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InvalidArgument(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}")
